// Unit tests: HTTP/2-lite framing and H2Session stream accounting (the
// object service over a real testbed is tested in test_workload.cc).
#include <gtest/gtest.h>

#include "http/h2_session.h"
#include "tcp/connection.h"
#include "util/bytes.h"

namespace longlook::http {
namespace {

// --- H2Framer --------------------------------------------------------------

TEST(H2Framer, FrameRoundTrip) {
  std::vector<std::tuple<std::uint64_t, Bytes, bool>> frames;
  H2Framer framer([&](std::uint64_t id, BytesView data, bool fin) {
    frames.emplace_back(id, Bytes(data.begin(), data.end()), fin);
  });
  const Bytes payload{1, 2, 3, 4};
  framer.feed(H2Framer::encode_frame(7, payload, true));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(std::get<0>(frames[0]), 7u);
  EXPECT_EQ(std::get<1>(frames[0]), payload);
  EXPECT_TRUE(std::get<2>(frames[0]));
}

TEST(H2Framer, ReassemblesFromArbitrarySplits) {
  std::vector<std::uint64_t> ids;
  H2Framer framer(
      [&](std::uint64_t id, BytesView, bool) { ids.push_back(id); });
  Bytes wire;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const Bytes f = H2Framer::encode_frame(id, Bytes(100, 1), id == 5);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  // Feed one byte at a time: the parser must handle partial headers.
  for (std::uint8_t b : wire) framer.feed(BytesView(&b, 1));
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(H2Framer, EmptyFinFrame) {
  bool got_fin = false;
  H2Framer framer([&](std::uint64_t, BytesView data, bool fin) {
    EXPECT_TRUE(data.empty());
    got_fin = fin;
  });
  framer.feed(H2Framer::encode_frame(3, {}, true));
  EXPECT_TRUE(got_fin);
}

// --- H2Session stream accounting + invariants -------------------------------
//
// A session over a standalone, routeless TcpConnection: outbound frames
// vanish and inbound wire bytes are injected with on_transport_data(), so
// the mux/demux accounting and its LL_CHECK/LL_INVARIANT guards can be
// exercised without a network.

struct H2Fixture {
  Simulator sim;
  Host host{sim, 1, "h2-host"};
  tcp::TcpConnection conn;
  explicit H2Fixture(bool is_client = true)
      : conn(sim, host, tcp::TcpConfig{}, /*peer=*/2, /*peer_port=*/443,
             /*local_port=*/40000, is_client) {}

  static void feed(H2Session& session, std::uint64_t stream_id, BytesView data,
                   bool fin) {
    session.on_transport_data(H2Framer::encode_frame(stream_id, data, fin),
                              false);
  }
};

TEST(H2SessionAccounting, OpenStreamCountTracksLocalOpensAndRemoteClose) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true, /*max_concurrent=*/2);
  EXPECT_EQ(session.open_stream_count(), 0u);
  H2Stream* s1 = session.open_stream();
  H2Stream* s3 = session.open_stream();
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s1->id(), 1u);
  EXPECT_EQ(s3->id(), 3u);
  EXPECT_EQ(session.open_stream_count(), 2u);
  // SETTINGS_MAX_CONCURRENT_STREAMS is enforced off the counter.
  EXPECT_FALSE(session.can_open_stream());
  EXPECT_EQ(session.open_stream(), nullptr);
  // Remote FIN closes the stream and releases a concurrency slot.
  H2Fixture::feed(session, 1, {}, true);
  EXPECT_EQ(session.open_stream_count(), 1u);
  EXPECT_TRUE(session.can_open_stream());
  H2Fixture::feed(session, 3, {}, true);
  EXPECT_EQ(session.open_stream_count(), 0u);
}

TEST(H2SessionAccounting, PeerInitiatedStreamCountsUntilFin) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true);
  std::vector<std::uint64_t> announced;
  session.set_on_new_stream(
      [&](H2Stream& s) { announced.push_back(s.id()); });
  const Bytes body{1, 2, 3};
  H2Fixture::feed(session, 2, body, false);  // server push: even id
  EXPECT_EQ(announced, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(session.open_stream_count(), 1u);
  H2Fixture::feed(session, 2, {}, true);
  EXPECT_EQ(session.open_stream_count(), 0u);
}

TEST(H2SessionAccounting, FinFreesConcurrencySlotBeforeOnDataFires) {
  // The runner opens its next queued stream from inside the fin callback;
  // the closing stream's slot must already be released at that point
  // (regression: the counter was decremented after deliver(), so a session
  // at SETTINGS_MAX_CONCURRENT_STREAMS could never drain its queue).
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true, /*max_concurrent=*/1);
  H2Stream* s1 = session.open_stream();
  ASSERT_NE(s1, nullptr);
  ASSERT_FALSE(session.can_open_stream());
  bool opened_in_callback = false;
  s1->set_on_data([&](BytesView, bool fin) {
    if (!fin) return;
    EXPECT_TRUE(session.can_open_stream());
    opened_in_callback = session.open_stream() != nullptr;
  });
  H2Fixture::feed(session, 1, {}, true);
  EXPECT_TRUE(opened_in_callback);
  EXPECT_EQ(session.open_stream_count(), 1u);  // the newly opened stream
}

TEST(H2InvariantDeathTest, FrameLengthBeyondCapAborts) {
  H2Framer framer([](std::uint64_t, BytesView, bool) {});
  // Hand-crafted header claiming a payload far above the 16 KB frame cap:
  // honouring it would buffer garbage forever (framing desync).
  ByteWriter w(16);
  w.varint(1);                     // stream id
  w.varint(kMaxFrameLength + 1);   // length past the cap
  w.u8(0);                         // flags
  const Bytes evil = w.take();
  EXPECT_DEATH(framer.feed(evil), "CHECK failed.*exceeds cap.*framing desync");
}

TEST(H2InvariantDeathTest, PeerStreamInClientOwnedIdSpaceAborts) {
  H2Fixture fx;
  H2Session session(fx.conn, /*is_client=*/true);
  // Odd ids belong to the client; an unknown odd id arriving from the peer
  // means the server originated a stream it must not own.
  EXPECT_DEATH(H2Fixture::feed(session, 5, {}, false),
               "INVARIANT failed.*client-owned id space");
}

TEST(H2InvariantDeathTest, PeerStreamInServerOwnedIdSpaceAborts) {
  H2Fixture fx(/*is_client=*/false);
  H2Session session(fx.conn, /*is_client=*/false);
  EXPECT_DEATH(H2Fixture::feed(session, 4, {}, false),
               "INVARIANT failed.*server-owned id space");
}

}  // namespace
}  // namespace longlook::http
