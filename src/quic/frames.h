// QUIC frame and packet definitions plus the wire codec.
//
// The format is a compact gQUIC-flavoured encoding: an 8-byte connection id,
// a varint packet number, a frame sequence, and a trailing integrity tag
// standing in for the AEAD (QUIC encrypts transport headers end-to-end;
// we reproduce the byte overhead and tamper detection, not the cryptography
// — see DESIGN.md "Substitutions").
#pragma once

#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "quic/types.h"
#include "util/bytes.h"
#include "util/time.h"

namespace longlook::quic {

struct StreamFrame {
  StreamId stream_id = 0;
  std::uint64_t offset = 0;
  bool fin = false;
  Bytes data;
};

struct AckRange {
  PacketNumber lo = 0;  // inclusive
  PacketNumber hi = 0;  // inclusive
};

// QUIC's ACK carries the receiver-measured delay and receive timestamp of
// the largest acked packet: together with never-reused packet numbers this
// eliminates TCP's ACK ambiguity (Sec. 2.1) and gives the sender precise
// RTT samples.
struct AckFrame {
  PacketNumber largest_acked = 0;
  Duration ack_delay = kNoDuration;
  std::vector<AckRange> ranges;  // descending, first contains largest_acked
  TimePoint largest_received_at{};
};

// stream_id 0 addresses the connection-level window.
struct WindowUpdateFrame {
  StreamId stream_id = 0;
  std::uint64_t max_offset = 0;
};

struct BlockedFrame {
  StreamId stream_id = 0;
};

enum class HandshakeMessageType : std::uint8_t {
  kInchoateChlo,  // no token: server will reject with one
  kRej,           // carries source-address token + server config
  kFullChlo,      // carries token; 0-RTT data may follow immediately
  kShlo,          // handshake complete (server side)
};

struct HandshakeFrame {
  HandshakeMessageType type = HandshakeMessageType::kInchoateChlo;
  std::uint64_t token = 0;
  std::uint64_t server_config_id = 0;
  // Client's advertised connection receive window: the "receiver-advertised
  // buffer" whose propagation into ssthresh the Chromium-52 bug broke.
  std::uint64_t client_connection_window = 0;
};

struct PingFrame {};

struct ConnectionCloseFrame {
  std::uint64_t error_code = 0;
  std::string reason;
};

struct StopWaitingFrame {
  PacketNumber least_unacked = 0;
};

using Frame = std::variant<StreamFrame, AckFrame, WindowUpdateFrame,
                           BlockedFrame, HandshakeFrame, PingFrame,
                           ConnectionCloseFrame, StopWaitingFrame>;

struct QuicPacket {
  ConnectionId connection_id = 0;
  PacketNumber packet_number = 0;
  std::vector<Frame> frames;
};

// --- Codec ---------------------------------------------------------------

// FNV-1a over `data`: the hash behind the packet integrity tag (the AEAD
// stand-in). Exact for every input; zero runs take a fast path.
std::uint64_t fnv1a(BytesView data);

Bytes encode_packet(const QuicPacket& p);
// nullopt on truncation, unknown frame type, or tag mismatch.
std::optional<QuicPacket> decode_packet(BytesView data);

// Size bookkeeping for the packet assembler.
std::size_t packet_header_size(PacketNumber pn);
std::size_t frame_size(const Frame& f);
// Overhead of a stream frame excluding its data bytes.
std::size_t stream_frame_overhead(StreamId id, std::uint64_t offset,
                                  std::size_t len);

bool is_retransmittable(const Frame& f);

}  // namespace longlook::quic
