// Test-only reference for quic::SentPacketManager: the ordered-map
// implementation the ring replaced, kept verbatim in behaviour. Every query
// walks the whole map, so it is slow but obviously right; the differential
// property test drives it and the ring with the same schedules and demands
// identical answers.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "quic/sent_packet_manager.h"

namespace longlook::quic {

class ReferenceSentPacketManager {
 public:
  explicit ReferenceSentPacketManager(LossDetectionConfig config)
      : config_(config) {}

  void on_packet_sent(PacketNumber pn, std::size_t bytes, TimePoint now,
                      bool retransmittable, std::vector<StreamDataRef> data) {
    largest_sent_ = std::max(largest_sent_, pn);
    if (retransmittable) bytes_in_flight_ += bytes;
    packets_.emplace(pn, Info{bytes, now, retransmittable, retransmittable,
                              false, std::move(data)});
  }

  AckProcessResult on_ack(const AckFrame& ack, TimePoint now,
                          RttEstimator& rtt) {
    AckProcessResult out;
    const PacketNumber effective_largest =
        std::max(largest_acked_, ack.largest_acked);
    for (const AckRange& range : ack.ranges) {
      auto it = packets_.lower_bound(range.lo);
      while (it != packets_.end() && it->first <= range.hi) {
        const PacketNumber pn = it->first;
        Info& info = it->second;
        out.acked.push_back({pn, info.bytes, info.sent_time});
        out.largest_newly_acked = std::max(out.largest_newly_acked, pn);
        if (info.declared_lost) {
          ++spurious_losses_;
          out.spurious_loss_detected = true;
          if (config_.mode == LossDetectionMode::kAdaptiveNack) {
            const std::size_t gap =
                effective_largest > pn
                    ? static_cast<std::size_t>(effective_largest - pn)
                    : nack_threshold_;
            nack_threshold_ = std::min(config_.max_nack_threshold,
                                       std::max(nack_threshold_, gap + 1));
          }
          out.spurious_acked.push_back({pn, info.bytes, info.sent_time});
          out.spurious_data.insert(out.spurious_data.end(), info.data.begin(),
                                   info.data.end());
        } else {
          if (info.in_flight) bytes_in_flight_ -= info.bytes;
          if (pn == ack.largest_acked) {
            rtt.update(now - info.sent_time, ack.ack_delay);
            out.rtt_updated = true;
          }
        }
        it = packets_.erase(it);
      }
    }
    largest_acked_ = effective_largest;

    const Duration delay = loss_delay(rtt);
    for (auto it = packets_.begin();
         it != packets_.end() && it->first < largest_acked_;) {
      Info& info = it->second;
      if (!info.retransmittable) {
        it = packets_.erase(it);
        continue;
      }
      if (info.declared_lost) {
        ++it;
        continue;
      }
      const bool lost =
          config_.mode == LossDetectionMode::kTimeThreshold
              ? rtt.has_samples() && now - info.sent_time >= delay
              : largest_acked_ >= it->first + nack_threshold_;
      if (lost) declare_lost(it->first, info, out);
      ++it;
    }

    const Duration keep = 2 * rtt.retransmission_timeout();
    std::erase_if(packets_, [&](const auto& entry) {
      return entry.second.declared_lost && now - entry.second.sent_time > keep;
    });
    return out;
  }

  std::vector<StreamDataRef> on_retransmission_timeout() {
    std::vector<StreamDataRef> out;
    for (auto& [pn, info] : packets_) {
      if (!info.in_flight) continue;
      info.in_flight = false;
      info.declared_lost = true;
      bytes_in_flight_ -= info.bytes;
      if (info.retransmittable) {
        out.insert(out.end(), info.data.begin(), info.data.end());
      }
    }
    return out;
  }

  std::vector<StreamDataRef> tail_loss_probe_data() const {
    for (auto it = packets_.rbegin(); it != packets_.rend(); ++it) {
      if (it->second.retransmittable && it->second.in_flight &&
          !it->second.data.empty()) {
        return it->second.data;
      }
    }
    return {};
  }

  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  bool has_retransmittable_in_flight() const {
    return std::any_of(packets_.begin(), packets_.end(), [](const auto& e) {
      return e.second.retransmittable && e.second.in_flight;
    });
  }
  PacketNumber largest_sent() const { return largest_sent_; }
  PacketNumber least_unacked() const {
    for (const auto& [pn, info] : packets_) {
      if (info.in_flight || info.declared_lost) return pn;
    }
    return largest_sent_ + 1;
  }
  std::size_t current_nack_threshold() const { return nack_threshold_; }

  std::optional<TimePoint> earliest_loss_time(const RttEstimator& rtt) const {
    if (config_.mode != LossDetectionMode::kTimeThreshold ||
        !rtt.has_samples()) {
      return std::nullopt;
    }
    std::optional<TimePoint> earliest;
    for (const auto& [pn, info] : packets_) {
      if (pn >= largest_acked_) break;
      if (info.declared_lost || !info.retransmittable || !info.in_flight) {
        continue;
      }
      const TimePoint t = info.sent_time + loss_delay(rtt);
      if (!earliest || t < *earliest) earliest = t;
    }
    return earliest;
  }

  AckProcessResult detect_time_losses(TimePoint now, const RttEstimator& rtt) {
    AckProcessResult out;
    if (config_.mode != LossDetectionMode::kTimeThreshold) return out;
    for (auto& [pn, info] : packets_) {
      if (pn >= largest_acked_) break;
      if (info.declared_lost || !info.retransmittable || !info.in_flight) {
        continue;
      }
      if (now - info.sent_time >= loss_delay(rtt)) {
        declare_lost(pn, info, out);
      }
    }
    return out;
  }

  std::uint64_t total_packets_declared_lost() const { return losses_declared_; }
  std::uint64_t total_spurious_losses() const { return spurious_losses_; }

 private:
  struct Info {
    std::size_t bytes = 0;
    TimePoint sent_time{};
    bool retransmittable = false;
    bool in_flight = false;
    bool declared_lost = false;
    std::vector<StreamDataRef> data;
  };

  // Copy of SentPacketManager::loss_delay.
  Duration loss_delay(const RttEstimator& rtt) const {
    const Duration base = std::max(rtt.smoothed(), rtt.latest());
    const auto ns = static_cast<std::int64_t>(
        static_cast<double>(base.count()) * config_.time_threshold);
    const Duration var_guard =
        rtt.smoothed() + 4 * rtt.mean_deviation() + milliseconds(25);
    return std::max({Duration(ns), var_guard, milliseconds(1)});
  }

  void declare_lost(PacketNumber pn, Info& info, AckProcessResult& out) {
    if (info.declared_lost || !info.in_flight) return;
    info.declared_lost = true;
    info.in_flight = false;
    bytes_in_flight_ -= info.bytes;
    ++losses_declared_;
    out.lost.push_back({pn, info.bytes});
    out.lost_data.insert(out.lost_data.end(), info.data.begin(),
                         info.data.end());
  }

  LossDetectionConfig config_;
  std::size_t nack_threshold_{config_.nack_threshold};
  std::map<PacketNumber, Info> packets_;
  std::size_t bytes_in_flight_ = 0;
  PacketNumber largest_sent_ = 0;
  PacketNumber largest_acked_ = 0;
  std::uint64_t losses_declared_ = 0;
  std::uint64_t spurious_losses_ = 0;
};

}  // namespace longlook::quic
