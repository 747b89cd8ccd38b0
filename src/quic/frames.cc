#include "quic/frames.h"

#include <array>
#include <cstring>

#include "util/pool.h"

namespace longlook::quic {
namespace {

enum class FrameType : std::uint8_t {
  kStream = 1,
  kAck = 2,
  kWindowUpdate = 3,
  kBlocked = 4,
  kHandshake = 5,
  kPing = 6,
  kConnectionClose = 7,
  kStopWaiting = 8,
};

// ACK delay travels as an unsigned varint. Duration is signed, so a
// negative delay must clamp to zero here instead of wrapping to a ~2^64
// varint, which would inflate the encoded size and desynchronize it from
// frame_size()'s accounting. No current caller produces a negative delay
// (the harness computes now - received_at with now >= received_at), so
// wire traces are unchanged; this hardens the encoder against future ones.
std::uint64_t ack_delay_wire(Duration d) {
  if (d.count() < 0) return 0;
  // ll-analysis: allow(narrowing-time-arith) clamped non-negative above
  return static_cast<std::uint64_t>(d.count());
}

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

// kZeroWordFactor[k] = p^(8k) mod 2^64: what k all-zero 8-byte words
// multiply the FNV-1a state by (a zero byte contributes h = (h ^ 0) * p).
constexpr std::array<std::uint64_t, 256> zero_word_factors() {
  std::uint64_t p8 = 1;
  for (int i = 0; i < 8; ++i) p8 *= kFnvPrime;
  std::array<std::uint64_t, 256> t{};
  std::uint64_t f = 1;
  for (std::uint64_t& e : t) {
    e = f;
    f *= p8;
  }
  return t;
}
constexpr std::array<std::uint64_t, 256> kZeroWordFactor = zero_word_factors();

std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, 8);
  return w;
}

}  // namespace

std::uint64_t fnv1a(BytesView data) {
  // FNV-1a, with an exact fast path for zero runs: a run of k all-zero
  // 8-byte words collapses to one multiply by p^(8k) (mod 2^64), taken
  // from a table and chopped into pieces of at most 255 words. Synthetic
  // object bodies are zero-filled, so the tag over a full-size packet costs
  // a few dozen loads and a multiply instead of ~1350 serial
  // xor-multiplies. Nonzero words fall back to the canonical byte loop, so
  // the tag value is bit-identical to the naive implementation.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::uint8_t* p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;
  while (i + 8 <= n) {
    if (load_word(p + i) != 0) {
      for (std::size_t k = i; k < i + 8; ++k) {
        h ^= p[k];
        h *= kFnvPrime;
      }
      i += 8;
      continue;
    }
    // Find the end of the zero run, 32 bytes at a time, then by words.
    std::size_t j = i + 8;
    while (j + 32 <= n && (load_word(p + j) | load_word(p + j + 8) |
                           load_word(p + j + 16) | load_word(p + j + 24)) == 0) {
      j += 32;
    }
    while (j + 8 <= n && load_word(p + j) == 0) j += 8;
    std::size_t words = (j - i) / 8;
    for (; words > 255; words -= 255) h *= kZeroWordFactor[255];
    h *= kZeroWordFactor[words];
    i = j;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

namespace {

void encode_frame(ByteWriter& w, const Frame& f) {
  std::visit(
      [&w](const auto& fr) {
        using T = std::decay_t<decltype(fr)>;
        if constexpr (std::is_same_v<T, StreamFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kStream));
          w.varint(fr.stream_id);
          w.varint(fr.offset);
          w.u8(fr.fin ? 1 : 0);
          w.varint(fr.data.size());
          w.bytes(fr.data);
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kAck));
          w.varint(fr.largest_acked);
          w.varint(ack_delay_wire(fr.ack_delay));
          // ll-analysis: allow(narrowing-time-arith) TimePoint is epoch-based and the simulation epoch is zero, so time_since_epoch() is never negative
          w.u64(static_cast<std::uint64_t>(
              fr.largest_received_at.time_since_epoch().count()));
          w.varint(fr.ranges.size());
          for (const AckRange& r : fr.ranges) {
            w.varint(r.lo);
            w.varint(r.hi);
          }
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kWindowUpdate));
          w.varint(fr.stream_id);
          w.varint(fr.max_offset);
        } else if constexpr (std::is_same_v<T, BlockedFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kBlocked));
          w.varint(fr.stream_id);
        } else if constexpr (std::is_same_v<T, HandshakeFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kHandshake));
          w.u8(static_cast<std::uint8_t>(fr.type));
          w.u64(fr.token);
          w.u64(fr.server_config_id);
          w.varint(fr.client_connection_window);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kPing));
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kConnectionClose));
          w.varint(fr.error_code);
          w.varint(fr.reason.size());
          w.str(fr.reason);
        } else if constexpr (std::is_same_v<T, StopWaitingFrame>) {
          w.u8(static_cast<std::uint8_t>(FrameType::kStopWaiting));
          w.varint(fr.least_unacked);
        }
      },
      f);
}

std::optional<Frame> decode_frame(ByteReader& r) {
  const auto type = r.u8();
  if (!type) return std::nullopt;
  switch (static_cast<FrameType>(*type)) {
    case FrameType::kStream: {
      StreamFrame f;
      auto id = r.varint();
      auto off = r.varint();
      auto fin = r.u8();
      auto len = r.varint();
      if (!id || !off || !fin || !len) return std::nullopt;
      auto data = r.bytes(static_cast<std::size_t>(*len));
      if (!data) return std::nullopt;
      f.stream_id = *id;
      f.offset = *off;
      f.fin = *fin != 0;
      f.data = std::move(*data);
      return Frame{std::move(f)};
    }
    case FrameType::kAck: {
      AckFrame f;
      auto largest = r.varint();
      auto delay = r.varint();
      auto ts = r.u64();
      auto n = r.varint();
      if (!largest || !delay || !ts || !n) return std::nullopt;
      f.largest_acked = *largest;
      f.ack_delay = Duration(static_cast<std::int64_t>(*delay));
      f.largest_received_at =
          TimePoint(Duration(static_cast<std::int64_t>(*ts)));
      for (std::uint64_t i = 0; i < *n; ++i) {
        auto lo = r.varint();
        auto hi = r.varint();
        if (!lo || !hi) return std::nullopt;
        f.ranges.push_back({*lo, *hi});
      }
      return Frame{std::move(f)};
    }
    case FrameType::kWindowUpdate: {
      auto id = r.varint();
      auto off = r.varint();
      if (!id || !off) return std::nullopt;
      return Frame{WindowUpdateFrame{*id, *off}};
    }
    case FrameType::kBlocked: {
      auto id = r.varint();
      if (!id) return std::nullopt;
      return Frame{BlockedFrame{*id}};
    }
    case FrameType::kHandshake: {
      auto t = r.u8();
      auto token = r.u64();
      auto cfg = r.u64();
      auto win = r.varint();
      if (!t || !token || !cfg || !win) return std::nullopt;
      return Frame{HandshakeFrame{static_cast<HandshakeMessageType>(*t),
                                  *token, *cfg, *win}};
    }
    case FrameType::kPing:
      return Frame{PingFrame{}};
    case FrameType::kConnectionClose: {
      auto code = r.varint();
      auto len = r.varint();
      if (!code || !len) return std::nullopt;
      auto reason = r.bytes(static_cast<std::size_t>(*len));
      if (!reason) return std::nullopt;
      return Frame{ConnectionCloseFrame{
          *code, std::string(reason->begin(), reason->end())}};
    }
    case FrameType::kStopWaiting: {
      auto least = r.varint();
      if (!least) return std::nullopt;
      return Frame{StopWaitingFrame{*least}};
    }
  }
  return std::nullopt;
}

}  // namespace

Bytes encode_packet(const QuicPacket& p) {
  // Recycled payload block: freed by the receiving host once the sink is
  // done with the datagram (or by the link on a drop).
  ByteWriter w(util::BytesPool::local().acquire(kMaxPacketPayload));
  w.u64(p.connection_id);
  w.varint(p.packet_number);
  for (const Frame& f : p.frames) encode_frame(w, f);
  // Integrity tag over everything so far (AEAD stand-in).
  const std::uint64_t tag = fnv1a(w.view());
  w.u64(tag);
  w.u32(static_cast<std::uint32_t>(tag >> 32));  // pad tag to kAeadTagBytes
  return w.take();
}

std::optional<QuicPacket> decode_packet(BytesView data) {
  if (data.size() < 8 + 1 + kAeadTagBytes) return std::nullopt;
  const std::size_t body_len = data.size() - kAeadTagBytes;
  ByteReader tag_reader(data.subspan(body_len));
  const auto tag = tag_reader.u64();
  const auto pad = tag_reader.u32();
  const std::uint64_t expected = fnv1a(data.first(body_len));
  // Verify the full 12-byte tag (8-byte hash + high-half echo) so any
  // corrupted wire byte — including in the tag itself — is rejected.
  if (!tag || !pad || *tag != expected ||
      *pad != static_cast<std::uint32_t>(expected >> 32)) {
    return std::nullopt;
  }

  ByteReader r(data.first(body_len));
  QuicPacket p;
  auto cid = r.u64();
  auto pn = r.varint();
  if (!cid || !pn) return std::nullopt;
  p.connection_id = *cid;
  p.packet_number = *pn;
  while (!r.empty()) {
    auto f = decode_frame(r);
    if (!f) return std::nullopt;
    p.frames.push_back(std::move(*f));
  }
  return p;
}

std::size_t packet_header_size(PacketNumber pn) {
  return 8 + varint_length(pn);
}

std::size_t stream_frame_overhead(StreamId id, std::uint64_t offset,
                                  std::size_t len) {
  return 1 + varint_length(id) + varint_length(offset) + 1 +
         varint_length(len);
}

std::size_t frame_size(const Frame& f) {
  return std::visit(
      [](const auto& fr) -> std::size_t {
        using T = std::decay_t<decltype(fr)>;
        if constexpr (std::is_same_v<T, StreamFrame>) {
          return stream_frame_overhead(fr.stream_id, fr.offset,
                                       fr.data.size()) +
                 fr.data.size();
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          std::size_t s = 1 + varint_length(fr.largest_acked) +
                          varint_length(ack_delay_wire(fr.ack_delay)) +
                          8 + varint_length(fr.ranges.size());
          for (const AckRange& r : fr.ranges) {
            s += varint_length(r.lo) + varint_length(r.hi);
          }
          return s;
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          return 1 + varint_length(fr.stream_id) +
                 varint_length(fr.max_offset);
        } else if constexpr (std::is_same_v<T, BlockedFrame>) {
          return 1 + varint_length(fr.stream_id);
        } else if constexpr (std::is_same_v<T, HandshakeFrame>) {
          return 1 + 1 + 8 + 8 + varint_length(fr.client_connection_window);
        } else if constexpr (std::is_same_v<T, PingFrame>) {
          return 1;
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          return 1 + varint_length(fr.error_code) +
                 varint_length(fr.reason.size()) + fr.reason.size();
        } else if constexpr (std::is_same_v<T, StopWaitingFrame>) {
          return 1 + varint_length(fr.least_unacked);
        }
      },
      f);
}

bool is_retransmittable(const Frame& f) {
  return !std::holds_alternative<AckFrame>(f) &&
         !std::holds_alternative<StopWaitingFrame>(f);
}

}  // namespace longlook::quic
