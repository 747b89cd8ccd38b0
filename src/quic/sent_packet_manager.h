// Sender-side bookkeeping: in-flight packets, ACK processing, and loss
// detection.
//
// Loss detection is the paper's Fig. 10 subject. gQUIC declares a packet
// lost once `nack_threshold` (default 3) packets with higher numbers have
// been acked — a fixed threshold, so reordering deeper than 3 packets
// produces false losses and spurious recovery. We implement three modes:
//   kFixedNack    — gQUIC behaviour (the paper's finding);
//   kAdaptiveNack — DSACK-style: late ACKs for packets already declared
//                   lost raise the threshold (RR-TCP [41], what the paper
//                   recommends QUIC adopt);
//   kTimeThreshold — time-based (9/8 * max(srtt, latest)), the "time-based
//                   solution" the QUIC team told the authors they were
//                   experimenting with.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cc/rtt_estimator.h"
#include "cc/types.h"
#include "quic/frames.h"
#include "quic/types.h"
#include "util/pool.h"

namespace longlook::quic {

enum class LossDetectionMode { kFixedNack, kAdaptiveNack, kTimeThreshold };

struct LossDetectionConfig {
  LossDetectionMode mode = LossDetectionMode::kFixedNack;
  std::size_t nack_threshold = 3;
  std::size_t max_nack_threshold = 64;  // cap for the adaptive mode
  double time_threshold = 9.0 / 8.0;    // fraction of max(srtt, latest)
};

// A contiguous piece of stream data carried by a packet; on loss it is
// re-queued with the stream for retransmission (QUIC never resends the same
// packet number).
struct StreamDataRef {
  StreamId stream_id = 0;
  std::uint64_t offset = 0;  // for handshake refs: index into the sent log
  std::size_t len = 0;
  bool fin = false;
  bool handshake = false;       // handshake message (re-queued from the log)
  bool window_update = false;   // WINDOW_UPDATE (regenerated on loss)
};

struct AckProcessResult {
  std::vector<AckedPacket> acked;       // newly acked, for the CC
  std::vector<LostPacket> lost;         // newly declared lost, for the CC
  std::vector<StreamDataRef> lost_data; // stream data to retransmit
  // Packets that had been declared lost but were acked after all: the loss
  // was spurious. They also appear in `acked` (the bytes were delivered, so
  // the CC must credit them); their stream data is listed in spurious_data
  // so the connection can cancel the retransmission it queued at
  // declare-lost time instead of double-sending.
  std::vector<AckedPacket> spurious_acked;
  std::vector<StreamDataRef> spurious_data;
  bool rtt_updated = false;
  bool spurious_loss_detected = false;  // a "lost" packet was acked late
  PacketNumber largest_newly_acked = 0;
};

class SentPacketManager {
 public:
  explicit SentPacketManager(LossDetectionConfig config) : config_(config) {}

  void on_packet_sent(PacketNumber pn, std::size_t bytes, TimePoint now,
                      bool retransmittable, std::vector<StreamDataRef> data);

  // Processes an ACK frame: updates RTT, marks acked, detects losses.
  AckProcessResult on_ack(const AckFrame& ack, TimePoint now,
                          RttEstimator& rtt);

  // RTO fired: all in-flight data is handed back for retransmission and the
  // packets leave the in-flight accounting (classic TCP-style RTO).
  std::vector<StreamDataRef> on_retransmission_timeout();

  // TLP probe: data of the most recent unacked retransmittable packet.
  std::vector<StreamDataRef> tail_loss_probe_data() const;

  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  // Only retransmittable packets are ever in flight.
  bool has_retransmittable_in_flight() const { return in_flight_count_ > 0; }
  TimePoint last_retransmittable_sent_time() const {
    return last_retransmittable_sent_;
  }
  PacketNumber largest_sent() const { return largest_sent_; }
  // Lowest packet number still in flight or declared lost (a late ACK can
  // still reveal a declared-lost packet as spurious), else largest_sent()+1.
  PacketNumber least_unacked() const {
    return in_flight_count_ + lost_count_ > 0 ? least_unacked_
                                              : largest_sent_ + 1;
  }
  std::size_t current_nack_threshold() const { return nack_threshold_; }

  // Earliest time a not-yet-lost packet would cross the time threshold
  // (for arming a loss alarm in kTimeThreshold mode).
  std::optional<TimePoint> earliest_loss_time(const RttEstimator& rtt) const;
  // Re-runs time-based loss detection at alarm time.
  AckProcessResult detect_time_losses(TimePoint now, const RttEstimator& rtt);

  std::uint64_t total_packets_declared_lost() const { return losses_declared_; }
  std::uint64_t total_spurious_losses() const { return spurious_losses_; }

 private:
  // Unacked packets live in a ring of 64-slot blocks indexed by packet
  // number, as in QUICHE's unacked-packet map: packet numbers are never
  // reused, so `pn - base_` is a stable index. Each block keeps one bit mask
  // per slot state, so every walk skips empty slots 64 at a time.
  enum State : unsigned { kAckOnly, kInFlight, kLost, kEmpty };
  using StateSet = unsigned;  // bit (1 << State) per member
  static constexpr StateSet kAckOnlyBit = 1u << kAckOnly;
  static constexpr StateSet kInFlightBit = 1u << kInFlight;
  static constexpr StateSet kLostBit = 1u << kLost;
  static constexpr std::size_t kBlockSlots = 64;

  struct Slot {
    std::size_t bytes = 0;
    TimePoint sent_time{};
    std::vector<StreamDataRef> data;
  };
  struct Block {
    std::array<std::uint64_t, kEmpty> bits{};  // one mask per non-empty state
    std::array<Slot, kBlockSlots> slots;
    std::uint64_t occupied() const {
      return bits[kAckOnly] | bits[kInFlight] | bits[kLost];
    }
  };

  Block& block_of(PacketNumber pn) {
    return blocks_[static_cast<std::size_t>((pn - base_) / kBlockSlots)];
  }
  const Block& block_of(PacketNumber pn) const {
    return blocks_[static_cast<std::size_t>((pn - base_) / kBlockSlots)];
  }
  Slot& slot(PacketNumber pn) { return block_of(pn).slots[pn % kBlockSlots]; }
  const Slot& slot(PacketNumber pn) const {
    return block_of(pn).slots[pn % kBlockSlots];
  }
  // Adds the blocks that cover pn, below the front or past the back.
  void cover(PacketNumber pn);
  // Moves the slot at pn from state `from` to `to` and keeps the state
  // counts. Emptying a slot frees its data.
  void set_state(PacketNumber pn, State from, State to);
  // Calls fn(pn, state) for each slot in [lo, stop) whose state is in
  // `states`, in ascending pn order, until fn returns false. fn may change
  // the state of the slot it is given, but of no other slot.
  template <typename Fn>
  void for_each(PacketNumber lo, PacketNumber stop, StateSet states,
                Fn&& fn) const;
  // Lowest in-flight or declared-lost pn at or above `from`, else
  // largest_sent_ + 1.
  PacketNumber first_unacked_from(PacketNumber from) const;
  void declare_lost(PacketNumber pn, AckProcessResult& out);
  Duration loss_delay(const RttEstimator& rtt) const;
  // bytes_in_flight_, the state counts and the least-unacked cursor agree
  // with the slots (O(n), LL_DCHECK-only).
  bool bookkeeping_consistent() const;

  LossDetectionConfig config_;
  std::size_t nack_threshold_{config_.nack_threshold};
  util::RingBuffer<Block> blocks_;
  PacketNumber base_ = 0;  // pn of blocks_.front().slots[0]; a multiple of 64
  std::size_t in_flight_count_ = 0;
  std::size_t lost_count_ = 0;
  // Exact while in_flight_count_ + lost_count_ > 0. It only moves up: every
  // retransmittable pn exceeds all earlier ones (checked on send).
  PacketNumber least_unacked_ = 0;
  // A retransmittable packet's pn must be at least this.
  PacketNumber next_retransmittable_pn_ = 0;
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_sent_ = 0;
  PacketNumber largest_acked_ = 0;
  TimePoint last_retransmittable_sent_{};
  std::uint64_t losses_declared_ = 0;
  std::uint64_t spurious_losses_ = 0;
};

}  // namespace longlook::quic
