// Unit tests: TCP segment wire format, configuration derivation, the
// receiver's SACK blocks and the scoreboard invariants. (The connection
// state machine is exercised end-to-end in test_tcp_e2e.)
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/link.h"
#include "tcp/connection.h"
#include "tcp/segment.h"
#include "util/rng.h"

namespace longlook::tcp {
namespace {

TEST(TcpSegment, PlainDataRoundTrip) {
  TcpSegment seg;
  seg.src_port = 40001;
  seg.dst_port = 443;
  seg.seq = 1'000'000;
  seg.ack = 999'999;
  seg.ack_flag = true;
  seg.window = 6 * 1024 * 1024;
  seg.ts_val = 123456789;
  seg.ts_ecr = 987654321;
  seg.payload = Bytes(1430, 0x5A);
  const Bytes wire = encode_segment(seg);
  const auto out = decode_segment(wire);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->src_port, 40001);
  EXPECT_EQ(out->dst_port, 443);
  EXPECT_EQ(out->seq, 1'000'000u);
  EXPECT_EQ(out->ack, 999'999u);
  EXPECT_TRUE(out->ack_flag);
  EXPECT_EQ(out->window, 6u * 1024 * 1024);
  EXPECT_EQ(out->ts_val, 123456789u);
  EXPECT_EQ(out->ts_ecr, 987654321u);
  EXPECT_EQ(out->payload, seg.payload);
}

TEST(TcpSegment, FlagsRoundTrip) {
  for (int mask = 0; mask < 32; ++mask) {
    TcpSegment seg;
    seg.syn = mask & 1;
    seg.fin = mask & 2;
    seg.ack_flag = mask & 4;
    seg.rst = mask & 8;
    seg.dsack = mask & 16;
    if (seg.dsack) seg.sack.push_back({10, 20});
    const auto out = decode_segment(encode_segment(seg));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->syn, seg.syn);
    EXPECT_EQ(out->fin, seg.fin);
    EXPECT_EQ(out->ack_flag, seg.ack_flag);
    EXPECT_EQ(out->rst, seg.rst);
    EXPECT_EQ(out->dsack, seg.dsack);
  }
}

TEST(TcpSegment, SackBlocksRoundTrip) {
  TcpSegment seg;
  seg.sack = {{100, 200}, {300, 400}, {500, 600}};
  seg.dsack = true;
  const auto out = decode_segment(encode_segment(seg));
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->sack.size(), 3u);
  EXPECT_EQ(out->sack[0].start, 100u);
  EXPECT_EQ(out->sack[2].end, 600u);
  EXPECT_TRUE(out->dsack);
}

TEST(TcpSegment, TruncationRejected) {
  TcpSegment seg;
  seg.payload = Bytes(100, 1);
  const Bytes wire = encode_segment(seg);
  for (std::size_t len : {std::size_t{0}, std::size_t{10}, wire.size() - 1}) {
    EXPECT_FALSE(decode_segment(BytesView(wire).first(len)).has_value());
  }
}

TEST(TcpSegment, OverheadCoversEncodedHeader) {
  TcpSegment seg;
  seg.sack = {{1, 2}, {3, 4}};
  const Bytes wire = encode_segment(seg);
  EXPECT_LE(wire.size(), segment_overhead(seg.sack.size()));
}

TEST(TcpConfig, CcConfigMirrorsLinuxDefaults) {
  TcpConfig cfg;
  const CubicSenderConfig cc = cfg.make_cc_config();
  EXPECT_EQ(cc.num_connections, 1);     // no N-connection emulation
  EXPECT_EQ(cc.initial_cwnd_packets, 10u);  // IW10
  EXPECT_FALSE(cc.pacing_enabled);      // stock kernel: no pacing
  EXPECT_FALSE(cc.ssthresh_from_rwnd_bug);
  EXPECT_EQ(cc.mss, kTcpMss);
}

// --- Scoreboard invariants (src/tcp/connection.cc LL_INVARIANTs) ---------
//
// A standalone client connection with no route: outbound segments vanish,
// and we feed crafted segments straight into on_segment() to hit the
// sequence-space invariants that e2e traffic can never trigger.

TcpConfig plain_config() {
  TcpConfig cfg;
  cfg.tls_enabled = false;  // established right after the SYN-ACK
  return cfg;
}

struct LoneClient {
  Simulator sim;
  Host host{sim, 1, "client"};
  TcpConnection conn;

  LoneClient()
      : conn(sim, host, plain_config(), /*peer=*/2, /*peer_port=*/443,
             /*local_port=*/40000, /*is_client=*/true) {
    conn.connect([] {});
    TcpSegment syn_ack;
    syn_ack.syn = true;
    syn_ack.ack_flag = true;
    syn_ack.window = 64 * 1024;
    conn.on_segment(syn_ack, sim.now());
  }
};

TEST(TcpInvariantDeathTest, AckBeyondSndNxtAborts) {
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  TcpSegment evil;
  evil.ack_flag = true;
  evil.ack = 1;  // nothing was ever written: snd_nxt == 0
  EXPECT_DEATH(c.conn.on_segment(evil, c.sim.now()),
               "INVARIANT failed.*beyond snd_nxt=0 \\(acked data never sent\\)");
}

TEST(TcpInvariantDeathTest, SackBlockBeyondSndNxtAborts) {
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  TcpSegment evil;
  evil.ack_flag = true;
  evil.ack = 0;
  evil.sack = {{5000, 9000}};  // claims receipt of bytes that never existed
  EXPECT_DEATH(c.conn.on_segment(evil, c.sim.now()),
               "INVARIANT failed.*beyond snd_nxt=0 \\(SACKed data never sent\\)");
}

TEST(TcpInvariantDeathTest, ValidAckAndSackAreAccepted) {
  // Control: the invariants stay quiet for in-range ACK/SACK traffic.
  LoneClient c;
  ASSERT_TRUE(c.conn.established());
  c.conn.write(Bytes(8000, 0x42), false);
  c.conn.flush();
  TcpSegment fine;
  fine.ack_flag = true;
  fine.ack = 1460;
  fine.sack = {{2920, 4380}};
  c.conn.on_segment(fine, c.sim.now());
  EXPECT_EQ(c.conn.stats().segments_received, 2u);  // SYN-ACK + this ACK
}

// The receiver reads its SACK blocks from an index of the chunks that begin
// a run. Check every ACK against a walk over a model of the out-of-order
// chunks, under random segments: gaps, overlaps that start mid-chunk (which
// begin a new block), duplicates, longer replacements and hole fills.
TEST(TcpSack, BlocksMatchAWalkOverTheChunksUnderRandomSegments) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Simulator sim;
    Host host{sim, 1, "client"};
    std::vector<TcpSegment> acks;
    DirectionalLink out(sim, LinkConfig{}, [&acks](Packet&& p) {
      if (auto seg = decode_segment(p.data)) acks.push_back(*seg);
    });
    host.set_default_route(&out);
    TcpConfig cfg = plain_config();
    cfg.ack_every_n = 1;  // every data segment is answered at once
    TcpConnection conn(sim, host, cfg, /*peer=*/2, /*peer_port=*/443,
                       /*local_port=*/40000, /*is_client=*/true);
    conn.connect([] {});
    TcpSegment syn_ack;
    syn_ack.syn = true;
    syn_ack.ack_flag = true;
    syn_ack.window = 64 * 1024;
    conn.on_segment(syn_ack, sim.now());
    sim.run_for(microseconds(1));
    ASSERT_TRUE(conn.established());

    Rng rng(seed);
    std::map<std::uint64_t, std::uint64_t> chunks;  // start -> end
    std::uint64_t rcv_nxt = 0;
    std::size_t max_blocks = 0;
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      std::uint64_t seq = rcv_nxt;
      if (rng.uniform_int(5) != 0) {
        const std::uint64_t back = std::min<std::uint64_t>(rcv_nxt, 600);
        seq = rcv_nxt - back + rng.uniform_int(5000);
      }
      const std::uint64_t len = (1 + rng.uniform_int(4)) * 100 +
                                (rng.uniform_int(3) == 0 ? 37 : 0);
      TcpSegment data;
      data.ack_flag = true;
      data.window = 64 * 1024;
      data.seq = seq;
      data.payload = Bytes(static_cast<std::size_t>(len), 0x5A);
      acks.clear();
      conn.on_segment(data, sim.now());
      sim.run_for(microseconds(1));

      // Model: store unless a chunk at the same start is as long, then
      // deliver the front while it touches rcv_nxt.
      const std::uint64_t end = seq + len;
      if (end > rcv_nxt) {
        const std::uint64_t start = std::max(seq, rcv_nxt);
        auto it = chunks.find(start);
        if (it == chunks.end() || it->second < end) chunks[start] = end;
        while (!chunks.empty() && chunks.begin()->first <= rcv_nxt) {
          rcv_nxt = std::max(rcv_nxt, chunks.begin()->second);
          chunks.erase(chunks.begin());
        }
      }
      // A chunk extends the run only if it starts exactly where the
      // previous chunk ends; the last three runs are reported.
      std::vector<SackBlock> expected;
      for (const auto& [s, e] : chunks) {
        if (!expected.empty() && expected.back().end == s) {
          expected.back().end = e;
        } else {
          expected.push_back({s, e});
        }
      }
      if (expected.size() > 3) {
        expected.erase(expected.begin(), expected.end() - 3);
      }

      ASSERT_EQ(acks.size(), 1u);
      std::vector<SackBlock> got = acks[0].sack;
      if (acks[0].dsack) got.erase(got.begin());
      ASSERT_EQ(acks[0].ack, rcv_nxt);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].start, expected[i].start) << "block " << i;
        EXPECT_EQ(got[i].end, expected[i].end) << "block " << i;
      }
      max_blocks = std::max(max_blocks, chunks.size());
    }
    EXPECT_GT(max_blocks, 3u);  // the schedule did build long chains
  }
}

}  // namespace
}  // namespace longlook::tcp
