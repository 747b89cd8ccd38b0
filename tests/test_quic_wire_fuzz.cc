// Seeded randomized fuzzing of the QUIC wire codec (src/quic/frames.cc).
//
// Three properties, each checked over thousands of deterministic cases:
//  * round-trip: a packet built from random valid frames decodes and
//    re-encodes to the exact same bytes, and the frame_size /
//    packet_header_size accounting matches the real wire size;
//  * tamper rejection: any single mutated byte (header, payload, or tag)
//    makes decode_packet return nullopt — the AEAD stand-in's contract;
//  * robustness: truncated prefixes and arbitrary garbage never crash the
//    decoder (they may only return nullopt).
//
// Seeds are fixed so failures replay exactly; there is no wall-clock or
// global entropy anywhere (the determinism lint enforces this repo-wide).
#include <gtest/gtest.h>

#include <numeric>

#include "quic/frames.h"
#include "quic/types.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace longlook::quic {
namespace {

constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

std::uint64_t rand_varint(Rng& rng) {
  // Bias across magnitudes so every varint width (1/2/4/8) is exercised.
  switch (rng.uniform_int(4)) {
    case 0:
      return rng.uniform_int(64);
    case 1:
      return rng.uniform_int(1 << 14);
    case 2:
      return rng.uniform_int(1ULL << 30);
    default:
      return rng.next() & kVarintMax;
  }
}

Bytes rand_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.uniform_int(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  return out;
}

Frame random_frame(Rng& rng) {
  switch (rng.uniform_int(8)) {
    case 0: {
      StreamFrame f;
      f.stream_id = rand_varint(rng);
      f.offset = rand_varint(rng);
      f.fin = rng.bernoulli(0.5);
      f.data = rand_bytes(rng, 200);
      return Frame{std::move(f)};
    }
    case 1: {
      AckFrame f;
      f.largest_acked = rand_varint(rng);
      f.ack_delay = Duration(static_cast<std::int64_t>(
          rng.uniform_int(1'000'000'000)));
      f.largest_received_at = TimePoint(
          Duration(static_cast<std::int64_t>(rng.next() >> 1)));
      const std::uint64_t n = rng.uniform_int(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        f.ranges.push_back({rand_varint(rng), rand_varint(rng)});
      }
      return Frame{std::move(f)};
    }
    case 2:
      return Frame{WindowUpdateFrame{rand_varint(rng), rand_varint(rng)}};
    case 3:
      return Frame{BlockedFrame{rand_varint(rng)}};
    case 4: {
      HandshakeFrame f;
      f.type = static_cast<HandshakeMessageType>(rng.uniform_int(4));
      f.token = rng.next();
      f.server_config_id = rng.next();
      f.client_connection_window = rand_varint(rng);
      return Frame{f};
    }
    case 5:
      return Frame{PingFrame{}};
    case 6: {
      ConnectionCloseFrame f;
      f.error_code = rand_varint(rng);
      const Bytes reason = rand_bytes(rng, 40);
      f.reason.assign(reason.begin(), reason.end());
      return Frame{std::move(f)};
    }
    default:
      return Frame{StopWaitingFrame{rand_varint(rng)}};
  }
}

QuicPacket random_packet(Rng& rng) {
  QuicPacket p;
  p.connection_id = rng.next();
  p.packet_number = rand_varint(rng);
  const std::uint64_t n = rng.uniform_int(6);
  for (std::uint64_t i = 0; i < n; ++i) p.frames.push_back(random_frame(rng));
  return p;
}

// The canonical byte-at-a-time FNV-1a: the reference for the codec's
// zero-run fast path, and the way to forge packets with a *valid* tag but a
// malformed body (the tag check must not mask parser bugs).
std::uint64_t fnv1a_bytewise(BytesView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Bytes seal_body(ByteWriter& w) {
  const std::uint64_t tag = fnv1a_bytewise(w.view());
  w.u64(tag);
  w.u32(static_cast<std::uint32_t>(tag >> 32));
  return w.take();
}

// The fast path folds runs of zero words into one table multiply and
// chops runs longer than the table; it must equal the byte loop exactly.
// Buffers carry a zero run of every length 0-300 at every alignment within
// a word, and runs far longer than the 255-word table.
TEST(QuicWireFuzz, Fnv1aFastPathEqualsByteLoop) {
  Rng rng(0x5eed0002);
  auto noise = [&rng](std::size_t n) {
    Bytes b(n);
    for (std::uint8_t& x : b) {
      x = static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    return b;
  };
  for (std::size_t run = 0; run <= 300; ++run) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      for (std::size_t tail = 0; tail < 10; tail += 3) {
        Bytes buf = noise(lead);
        buf.insert(buf.end(), run, 0);
        const Bytes t = noise(tail);
        buf.insert(buf.end(), t.begin(), t.end());
        ASSERT_EQ(fnv1a(buf), fnv1a_bytewise(buf))
            << "run " << run << " lead " << lead << " tail " << tail;
      }
    }
  }
  for (const std::size_t run : {2039, 2040, 2041, 4096, 9000, 70001}) {
    for (std::size_t lead = 0; lead < 8; ++lead) {
      Bytes buf = noise(lead);
      buf.insert(buf.end(), run, 0);
      const Bytes t = noise(5);
      buf.insert(buf.end(), t.begin(), t.end());
      buf.insert(buf.end(), run / 3, 0);
      ASSERT_EQ(fnv1a(buf), fnv1a_bytewise(buf))
          << "run " << run << " lead " << lead;
    }
  }
  // Random mixes: sparse nonzero bytes inside long zero stretches.
  for (int iter = 0; iter < 500; ++iter) {
    Bytes buf(static_cast<std::size_t>(rng.uniform_int(5000)), 0);
    const std::uint64_t marks = rng.uniform_int(6);
    for (std::uint64_t m = 0; m < marks && !buf.empty(); ++m) {
      buf[static_cast<std::size_t>(rng.uniform_int(buf.size()))] =
          static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    ASSERT_EQ(fnv1a(buf), fnv1a_bytewise(buf)) << "iter " << iter;
  }
}

TEST(QuicWireFuzz, RandomValidPacketsRoundTripByteIdentically) {
  Rng rng(0x5eed0001);
  for (int iter = 0; iter < 2000; ++iter) {
    const QuicPacket p = random_packet(rng);
    const Bytes wire = encode_packet(p);

    // Size accounting is what the packet assembler trusts to fill packets
    // to the MTU; it must match the real encoder exactly.
    const std::size_t frames_size = std::accumulate(
        p.frames.begin(), p.frames.end(), std::size_t{0},
        [](std::size_t acc, const Frame& f) { return acc + frame_size(f); });
    EXPECT_EQ(wire.size(), packet_header_size(p.packet_number) + frames_size +
                               kAeadTagBytes)
        << "iter " << iter;

    const auto decoded = decode_packet(wire);
    ASSERT_TRUE(decoded.has_value()) << "iter " << iter;
    EXPECT_EQ(decoded->connection_id, p.connection_id);
    EXPECT_EQ(decoded->packet_number, p.packet_number);
    ASSERT_EQ(decoded->frames.size(), p.frames.size()) << "iter " << iter;
    // Re-encoding the decode must reproduce the wire bytes exactly.
    EXPECT_EQ(encode_packet(*decoded), wire) << "iter " << iter;
  }
}

TEST(QuicWireFuzz, AnySingleMutatedByteIsRejected) {
  Rng rng(0x5eed0002);
  for (int iter = 0; iter < 400; ++iter) {
    const QuicPacket p = random_packet(rng);
    Bytes wire = encode_packet(p);
    const std::size_t pos = rng.uniform_int(wire.size());
    const std::uint8_t flip = static_cast<std::uint8_t>(
        1u << rng.uniform_int(8));
    wire[pos] ^= flip;
    // The 12-byte integrity tag covers every byte, including itself.
    EXPECT_FALSE(decode_packet(wire).has_value())
        << "iter " << iter << " byte " << pos;
  }
}

TEST(QuicWireFuzz, TruncatedPrefixesAreRejectedWithoutCrashing) {
  Rng rng(0x5eed0003);
  for (int iter = 0; iter < 100; ++iter) {
    const QuicPacket p = random_packet(rng);
    const Bytes wire = encode_packet(p);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      EXPECT_FALSE(decode_packet(BytesView(wire).first(len)).has_value())
          << "iter " << iter << " len " << len;
    }
  }
}

TEST(QuicWireFuzz, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(0x5eed0004);
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes garbage = rand_bytes(rng, 256);
    // With a 96-bit integrity tag the odds of random bytes validating are
    // negligible; the property under test is "no crash, no hang".
    EXPECT_FALSE(decode_packet(garbage).has_value()) << "iter " << iter;
  }
}

TEST(QuicWireFuzz, ValidTagWithUnknownFrameTypeIsRejected) {
  Rng rng(0x5eed0005);
  for (std::uint32_t bad_type : {0u, 9u, 42u, 255u}) {
    ByteWriter w(64);
    w.u64(rng.next());                    // connection id
    w.varint(rng.uniform_int(1 << 20));   // packet number
    w.u8(static_cast<std::uint8_t>(bad_type));
    const Bytes wire = seal_body(w);
    EXPECT_FALSE(decode_packet(wire).has_value()) << "type " << bad_type;
  }
}

TEST(QuicWireFuzz, ValidTagWithTruncatedFrameBodyIsRejected) {
  // A stream frame whose declared length runs past the body: the parser
  // must fail cleanly even though the tag validates.
  ByteWriter w(64);
  w.u64(0x1122334455667788ULL);  // connection id
  w.varint(7);                   // packet number
  w.u8(1);                       // FrameType::kStream
  w.varint(4);                   // stream id
  w.varint(0);                   // offset
  w.u8(0);                       // fin
  w.varint(1000);                // declared length >> actual remaining bytes
  w.bytes(Bytes{1, 2, 3});
  const Bytes wire = seal_body(w);
  EXPECT_FALSE(decode_packet(wire).has_value());
}

}  // namespace
}  // namespace longlook::quic
