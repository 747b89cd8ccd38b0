#include "quic/sent_packet_manager.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace longlook::quic {

void SentPacketManager::on_packet_sent(PacketNumber pn, std::size_t bytes,
                                       TimePoint now, bool retransmittable,
                                       std::vector<StreamDataRef> data) {
  cover(pn);
  // Packet numbers are never reused: a duplicate would corrupt the in-flight
  // accounting and every loss-detection decision downstream. (Delayed
  // ack-emission means an ack-only pn may arrive here out of order, so
  // uniqueness — not monotonicity — is the invariant for all packets.)
  LL_INVARIANT(((block_of(pn).occupied() >> (pn % kBlockSlots)) & 1) == 0)
      << "packet number " << pn << " reused";
  largest_sent_ = std::max(largest_sent_, pn);
  Slot& info = slot(pn);
  info.bytes = bytes;
  info.sent_time = now;
  info.data = std::move(data);
  if (!retransmittable) {
    // Ack-only packets are not congestion controlled and never
    // retransmitted, so they don't count as in flight.
    set_state(pn, kEmpty, kAckOnly);
    return;
  }
  // Retransmittable packets are registered as they are built, so their pns
  // and sent times rise together. The least-unacked cursor and the stale-loss
  // GC's early stop depend on it.
  LL_INVARIANT(pn >= next_retransmittable_pn_)
      << "retransmittable pn " << pn << " registered after pn "
      << next_retransmittable_pn_ - 1;
  LL_INVARIANT(now >= last_retransmittable_sent_)
      << "retransmittable pn " << pn << " sent before the previous one";
  if (in_flight_count_ + lost_count_ == 0) least_unacked_ = pn;
  next_retransmittable_pn_ = pn + 1;
  last_retransmittable_sent_ = now;
  bytes_in_flight_ += bytes;
  set_state(pn, kEmpty, kInFlight);
}

void SentPacketManager::cover(PacketNumber pn) {
  const PacketNumber start = pn - pn % kBlockSlots;
  // The ring never drops its last block: when that one is empty too, it is
  // rebased to wherever the next packet lands instead of rebuilt.
  if (blocks_.empty()) blocks_.emplace_back();
  if (blocks_.size() == 1 && blocks_.front().occupied() == 0) base_ = start;
  while (start < base_) {
    blocks_.push_front(Block{});
    base_ -= kBlockSlots;
  }
  while (start >= base_ + kBlockSlots * blocks_.size()) blocks_.emplace_back();
}

void SentPacketManager::set_state(PacketNumber pn, State from, State to) {
  Block& block = block_of(pn);
  const std::uint64_t bit = std::uint64_t{1} << (pn % kBlockSlots);
  if (from != kEmpty) block.bits[from] &= ~bit;
  if (to != kEmpty) block.bits[to] |= bit;
  if (to == kEmpty) block.slots[pn % kBlockSlots].data = {};
  if (from == kInFlight) --in_flight_count_;
  if (from == kLost) --lost_count_;
  if (to == kInFlight) ++in_flight_count_;
  if (to == kLost) ++lost_count_;
}

template <typename Fn>
void SentPacketManager::for_each(PacketNumber lo, PacketNumber stop,
                                 StateSet states, Fn&& fn) const {
  if (blocks_.empty()) return;
  lo = std::max(lo, base_);
  stop = std::min<PacketNumber>(stop, base_ + kBlockSlots * blocks_.size());
  for (PacketNumber start = lo - lo % kBlockSlots; start < stop;
       start += kBlockSlots) {
    const Block& block = block_of(start);
    std::uint64_t word = 0;
    for (State s : {kAckOnly, kInFlight, kLost}) {
      if ((states >> s) & 1) word |= block.bits[s];
    }
    if (lo > start) word &= ~std::uint64_t{0} << (lo - start);
    if (stop - start < kBlockSlots) {
      word &= ~(~std::uint64_t{0} << (stop - start));
    }
    while (word != 0) {
      const auto i = static_cast<unsigned>(std::countr_zero(word));
      word &= word - 1;
      const std::uint64_t bit = std::uint64_t{1} << i;
      const State state = (block.bits[kInFlight] & bit) != 0 ? kInFlight
                          : (block.bits[kLost] & bit) != 0   ? kLost
                                                             : kAckOnly;
      if (!fn(start + i, state)) return;
    }
  }
}

PacketNumber SentPacketManager::first_unacked_from(PacketNumber from) const {
  PacketNumber first = largest_sent_ + 1;
  for_each(from, largest_sent_ + 1, kInFlightBit | kLostBit,
           [&](PacketNumber pn, State) {
             first = pn;
             return false;
           });
  return first;
}

Duration SentPacketManager::loss_delay(const RttEstimator& rtt) const {
  const Duration base = std::max(rtt.smoothed(), rtt.latest());
  const auto ns = static_cast<std::int64_t>(
      static_cast<double>(base.count()) * config_.time_threshold);
  // Account for path delay variance and delayed acks: with jittery links
  // the ack for a reordered packet legitimately arrives several deviations
  // late, and a bare 9/8*SRTT threshold would re-declare those losses
  // forever.
  const Duration var_guard =
      rtt.smoothed() + 4 * rtt.mean_deviation() + milliseconds(25);
  return std::max({Duration(ns), var_guard, milliseconds(1)});
}

void SentPacketManager::declare_lost(PacketNumber pn, AckProcessResult& out) {
  const Slot& info = slot(pn);
  LL_INVARIANT(bytes_in_flight_ >= info.bytes)
      << "in-flight underflow declaring pn " << pn << " lost ("
      << bytes_in_flight_ << " < " << info.bytes << ")";
  bytes_in_flight_ -= info.bytes;
  ++losses_declared_;
  out.lost.push_back({pn, info.bytes});
  for (const StreamDataRef& ref : info.data) out.lost_data.push_back(ref);
  // Keep the slot so a late ACK can reveal the loss as spurious.
  set_state(pn, kInFlight, kLost);
}

AckProcessResult SentPacketManager::on_ack(const AckFrame& ack, TimePoint now,
                                           RttEstimator& rtt) {
  AckProcessResult out;

  // ACK-frame consistency: the peer cannot ack packets we never sent, and
  // every range must be well-formed and covered by largest_acked.
  LL_INVARIANT(ack.largest_acked <= largest_sent_)
      << "peer acked unsent pn " << ack.largest_acked << " (largest sent "
      << largest_sent_ << ")";
  for (const AckRange& range : ack.ranges) {
    LL_INVARIANT(range.lo <= range.hi)
        << "inverted ack range [" << range.lo << ", " << range.hi << "]";
    LL_INVARIANT(range.hi <= ack.largest_acked)
        << "ack range [" << range.lo << ", " << range.hi
        << "] above largest_acked " << ack.largest_acked;
  }

  // Gap decisions below must see the ACK frame's own largest: the member is
  // only advanced after the range loop, and the frame that reveals a
  // spurious loss usually carries the new maximum, so using the stale value
  // understates the observed reordering depth.
  const PacketNumber effective_largest =
      std::max(largest_acked_, ack.largest_acked);

  // 1. Mark acked packets. Slots acked earlier are empty and not visited.
  for (const AckRange& range : ack.ranges) {
    const StateSet any = kAckOnlyBit | kInFlightBit | kLostBit;
    for_each(range.lo, range.hi + 1, any, [&](PacketNumber pn, State state) {
      const Slot& info = slot(pn);
      if (state == kLost) {
        // The packet we declared lost arrived after all: reordering, not
        // loss. The adaptive mode reacts like TCP's DSACK handling and
        // deepens the NACK threshold (RR-TCP).
        ++spurious_losses_;
        out.spurious_loss_detected = true;
        if (config_.mode == LossDetectionMode::kAdaptiveNack) {
          const std::size_t observed_gap =
              effective_largest > pn
                  ? static_cast<std::size_t>(effective_largest - pn)
                  : nack_threshold_;
          nack_threshold_ =
              std::min(config_.max_nack_threshold,
                       std::max(nack_threshold_, observed_gap + 1));
        }
        // The bytes were delivered: credit the CC (declare_lost already took
        // them out of flight, so there is no second in-flight decrement) and
        // hand the refs back so the queued retransmission is cancelled. The
        // late sample is skipped for RTT: it measures the reordering detour,
        // not the path.
        out.acked.push_back({pn, info.bytes, info.sent_time});
        out.spurious_acked.push_back({pn, info.bytes, info.sent_time});
        out.largest_newly_acked = std::max(out.largest_newly_acked, pn);
        for (const StreamDataRef& ref : info.data) {
          out.spurious_data.push_back(ref);
        }
        set_state(pn, kLost, kEmpty);
        return true;
      }
      if (state == kInFlight) {
        LL_INVARIANT(bytes_in_flight_ >= info.bytes)
            << "in-flight underflow acking pn " << pn;
        bytes_in_flight_ -= info.bytes;
      }
      out.acked.push_back({pn, info.bytes, info.sent_time});
      out.largest_newly_acked = std::max(out.largest_newly_acked, pn);
      if (pn == ack.largest_acked) {
        rtt.update(now - info.sent_time, ack.ack_delay);
        out.rtt_updated = true;
      }
      set_state(pn, state, kEmpty);
      return true;
    });
  }
  largest_acked_ = effective_largest;

  // 2. Loss detection over remaining unacked packets below largest_acked.
  // Declared-lost slots are not visited.
  const Duration delay = loss_delay(rtt);
  const StateSet unresolved = kAckOnlyBit | kInFlightBit;
  for_each(base_, largest_acked_, unresolved, [&](PacketNumber pn,
                                                  State state) {
    if (state == kAckOnly) {
      // Ack-only packet the peer never acked: nothing to track.
      set_state(pn, kAckOnly, kEmpty);
      return true;
    }
    bool lost = false;
    if (config_.mode == LossDetectionMode::kTimeThreshold) {
      lost = rtt.has_samples() && now - slot(pn).sent_time >= delay;
    } else {
      lost = largest_acked_ >= pn + nack_threshold_;
    }
    if (lost) declare_lost(pn, out);
    return true;
  });

  // 3. Garbage-collect stale lost entries (no late ACK within ~2 RTOs).
  // Declared-lost packets are retransmittable, so their sent times rise with
  // pn and the stale ones are the lowest.
  if (lost_count_ > 0) {
    const Duration keep = 2 * rtt.retransmission_timeout();
    for_each(base_, largest_sent_ + 1, kLostBit, [&](PacketNumber pn, State) {
      if (now - slot(pn).sent_time <= keep) return false;
      set_state(pn, kLost, kEmpty);
      return true;
    });
  }

  // 4. Release emptied blocks at the front; move the cursor past acked pns.
  while (blocks_.size() > 1 && blocks_.front().occupied() == 0) {
    blocks_.pop_front();
    base_ += kBlockSlots;
  }
  least_unacked_ = first_unacked_from(least_unacked_);
  LL_DCHECK(bookkeeping_consistent())
      << "sent-packet bookkeeping diverged from the slots after ACK of "
      << ack.largest_acked;
  return out;
}

bool SentPacketManager::bookkeeping_consistent() const {
  std::size_t bytes = 0;
  std::size_t in_flight = 0;
  std::size_t lost = 0;
  PacketNumber first = largest_sent_ + 1;
  for_each(base_, largest_sent_ + 1, kInFlightBit | kLostBit,
           [&](PacketNumber pn, State state) {
             first = std::min(first, pn);
             if (state == kLost) {
               ++lost;
             } else {
               ++in_flight;
               bytes += slot(pn).bytes;
             }
             return true;
           });
  return bytes == bytes_in_flight_ && in_flight == in_flight_count_ &&
         lost == lost_count_ && first == least_unacked();
}

std::optional<TimePoint> SentPacketManager::earliest_loss_time(
    const RttEstimator& rtt) const {
  if (config_.mode != LossDetectionMode::kTimeThreshold || !rtt.has_samples()) {
    return std::nullopt;
  }
  // In-flight sent times rise with pn: the lowest one below largest_acked
  // crosses the threshold first.
  std::optional<TimePoint> earliest;
  const Duration delay = loss_delay(rtt);
  for_each(least_unacked(), largest_acked_, kInFlightBit,
           [&](PacketNumber pn, State) {
             earliest = slot(pn).sent_time + delay;
             return false;
           });
  return earliest;
}

AckProcessResult SentPacketManager::detect_time_losses(
    TimePoint now, const RttEstimator& rtt) {
  AckProcessResult out;
  if (config_.mode != LossDetectionMode::kTimeThreshold) return out;
  const Duration delay = loss_delay(rtt);
  // Sent times rise with pn: the first packet not yet late ends the scan.
  for_each(least_unacked(), largest_acked_, kInFlightBit,
           [&](PacketNumber pn, State) {
             if (now - slot(pn).sent_time < delay) return false;
             declare_lost(pn, out);
             return true;
           });
  return out;
}

std::vector<StreamDataRef> SentPacketManager::on_retransmission_timeout() {
  std::vector<StreamDataRef> out;
  for_each(least_unacked(), largest_sent_ + 1, kInFlightBit,
           [&](PacketNumber pn, State) {
             const Slot& info = slot(pn);
             LL_INVARIANT(bytes_in_flight_ >= info.bytes)
                 << "in-flight underflow on RTO for pn " << pn;
             bytes_in_flight_ -= info.bytes;
             for (const StreamDataRef& ref : info.data) out.push_back(ref);
             set_state(pn, kInFlight, kLost);
             return true;
           });
  return out;
}

std::vector<StreamDataRef> SentPacketManager::tail_loss_probe_data() const {
  // Most recent unacked retransmittable packet's data.
  if (in_flight_count_ == 0) return {};
  for (std::size_t b = blocks_.size(); b-- > 0;) {
    const Block& block = blocks_[b];
    for (std::uint64_t word = block.bits[kInFlight]; word != 0;) {
      const auto i =
          static_cast<unsigned>(kBlockSlots - 1 - std::countl_zero(word));
      word &= ~(std::uint64_t{1} << i);
      if (!block.slots[i].data.empty()) return block.slots[i].data;
    }
  }
  return {};
}

}  // namespace longlook::quic
