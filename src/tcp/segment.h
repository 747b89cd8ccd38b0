// TCP segment wire format with the options our substrate models:
// SACK (+DSACK), and timestamps for RTT sampling.
//
// Sequence numbers are carried as 64-bit to avoid modelling wraparound —
// the paper's transfers (<= 210 MB) stay far below 2^32 anyway, and it keeps
// the scoreboard logic honest.
#pragma once

#include <optional>
#include <vector>

#include "net/packet.h"
#include "util/bytes.h"
#include "util/time.h"

namespace longlook::tcp {

struct SackBlock {
  std::uint64_t start = 0;  // inclusive
  std::uint64_t end = 0;    // exclusive

  bool operator==(const SackBlock&) const = default;
};

struct TcpSegment {
  Port src_port = 0;
  Port dst_port = 0;
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  bool syn = false;
  bool fin = false;
  bool ack_flag = false;
  bool rst = false;
  std::uint64_t window = 0;  // advertised receive window in bytes
  // First block is the DSACK block when reporting a duplicate (RFC 2883).
  std::vector<SackBlock> sack;
  bool dsack = false;  // first SACK block is a DSACK report
  // Timestamp option (RFC 7323): val echoes back as ecr.
  std::uint64_t ts_val = 0;
  std::uint64_t ts_ecr = 0;
  Bytes payload;
};

Bytes encode_segment(const TcpSegment& seg);
std::optional<TcpSegment> decode_segment(BytesView data);

// Header+options byte count for a segment shaped like `seg` (for MSS math).
std::size_t segment_overhead(std::size_t sack_blocks);

}  // namespace longlook::tcp
