#include "quic/stream.h"

#include <algorithm>

#include "util/check.h"

namespace longlook::quic {

QuicStream::QuicStream(StreamId id, std::size_t send_window,
                       std::size_t recv_window)
    : id_(id),
      peer_max_offset_(send_window),
      recv_window_(recv_window),
      advertised_max_(recv_window) {}

void QuicStream::write(BytesView data, bool fin) {
  send_buffer_.append(data);
  if (fin) fin_written_ = true;
  if (on_sendable_) on_sendable_();
}

bool QuicStream::has_pending_data() const {
  if (!retx_.empty()) return true;
  if (next_send_offset_ < send_buffer_.end_offset()) return true;
  return fin_written_ && !fin_sent_;
}

bool QuicStream::blocked_by_stream_fc() const {
  if (!retx_.empty()) return false;  // retransmissions are within the window
  return next_send_offset_ < send_buffer_.end_offset() &&
         next_send_offset_ >= peer_max_offset_;
}

std::optional<SendChunk> QuicStream::take_chunk(std::size_t max_len,
                                                std::uint64_t conn_allowance) {
  LL_INVARIANT(next_send_offset_ <= send_buffer_.end_offset())
      << "stream " << id_ << " send offset " << next_send_offset_
      << " past buffered " << send_buffer_.end_offset();
  if (max_len == 0) return std::nullopt;
  // Retransmissions first: fastest way to fill holes at the receiver.
  if (!retx_.empty()) {
    RetxRange& r = retx_.front();
    SendChunk chunk;
    chunk.offset = r.offset;
    chunk.is_retransmission = true;
    const std::size_t n = std::min(max_len, r.len);
    chunk.data = send_buffer_.copy_out(r.offset, n);
    if (n == r.len) {
      chunk.fin = r.fin;
      retx_.erase(retx_.begin());
    } else {
      r.offset += n;
      r.len -= n;
    }
    return chunk;
  }

  // Fresh data, limited by stream and connection flow control.
  const std::uint64_t fc_limit = std::min<std::uint64_t>(
      peer_max_offset_, next_send_offset_ + conn_allowance);
  const std::uint64_t buffered = send_buffer_.end_offset();
  const std::uint64_t sendable_end =
      std::min<std::uint64_t>(buffered, fc_limit);
  if (next_send_offset_ < sendable_end) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_len, sendable_end - next_send_offset_));
    SendChunk chunk;
    chunk.offset = next_send_offset_;
    chunk.data = send_buffer_.copy_out(next_send_offset_, n);
    next_send_offset_ += n;
    if (fin_written_ && next_send_offset_ == buffered) {
      chunk.fin = true;
      fin_sent_ = true;
    }
    // Fresh data must respect the peer's stream flow-control window; a
    // violation here is the sender overrunning MAX_STREAM_DATA.
    LL_INVARIANT(chunk.offset + chunk.data.size() <= peer_max_offset_)
        << "stream " << id_ << " sent past peer window: offset "
        << chunk.offset << " + " << chunk.data.size() << " > "
        << peer_max_offset_;
    return chunk;
  }

  // Pure FIN (no data left but fin not yet sent).
  if (fin_written_ && !fin_sent_ && next_send_offset_ >= buffered) {
    fin_sent_ = true;
    SendChunk chunk;
    chunk.offset = next_send_offset_;
    chunk.fin = true;
    return chunk;
  }
  return std::nullopt;
}

void QuicStream::requeue(std::uint64_t offset, std::size_t len, bool fin) {
  if (fin) fin_sent_ = false;
  if (len == 0 && !fin) return;
  retx_.push_back({offset, len, fin});
  if (on_sendable_) on_sendable_();
}

void QuicStream::cancel_retransmission(std::uint64_t offset, std::size_t len,
                                       bool fin) {
  const std::uint64_t lo = offset;
  const std::uint64_t hi = offset + len;
  std::vector<RetxRange> kept;
  kept.reserve(retx_.size() + 1);
  for (RetxRange r : retx_) {
    if (fin && r.fin) r.fin = false;
    const std::uint64_t r_lo = r.offset;
    const std::uint64_t r_hi = r.offset + r.len;
    const std::uint64_t cut_lo = std::max(lo, r_lo);
    const std::uint64_t cut_hi = std::min(hi, r_hi);
    if (cut_lo >= cut_hi) {  // no byte overlap
      if (r.len > 0 || r.fin) kept.push_back(r);
      continue;
    }
    if (r_lo < cut_lo) {
      kept.push_back({r_lo, static_cast<std::size_t>(cut_lo - r_lo), false});
    }
    if (cut_hi < r_hi) {
      kept.push_back({cut_hi, static_cast<std::size_t>(r_hi - cut_hi), r.fin});
    } else if (r.fin) {
      // Bytes fully cancelled but this range still owed a FIN.
      kept.push_back({r_hi, 0, true});
    }
  }
  retx_ = std::move(kept);
  // The late packet delivered the FIN, so it no longer needs resending.
  if (fin) fin_sent_ = true;
}

void QuicStream::on_window_update(std::uint64_t max_offset) {
  peer_max_offset_ = std::max(peer_max_offset_, max_offset);
}

QuicStream::RecvResult QuicStream::on_stream_frame(std::uint64_t offset,
                                                   BytesView data, bool fin) {
  RecvResult result;
  if (fin) {
    // A retransmitted FIN must land at the same final offset; a moving FIN
    // means sender and receiver disagree about the stream's length.
    LL_INVARIANT(!fin_received_ || fin_offset_ == offset + data.size())
        << "stream " << id_ << " FIN moved from " << fin_offset_ << " to "
        << offset + data.size();
    fin_received_ = true;
    fin_offset_ = offset + data.size();
  }
  // Trim anything already delivered.
  std::uint64_t start = offset;
  BytesView payload = data;
  if (start < delivered_) {
    const std::uint64_t skip = delivered_ - start;
    if (skip >= payload.size()) {
      payload = {};
      start = delivered_;
    } else {
      payload = payload.subspan(static_cast<std::size_t>(skip));
      start = delivered_;
    }
  }
  if (!payload.empty()) {
    // Store unless an overlapping buffered chunk already covers it.
    auto it = reassembly_.find(start);
    if (it == reassembly_.end() || it->second.size() < payload.size()) {
      reassembly_[start] = Bytes(payload.begin(), payload.end());
    }
  }
  // Drain contiguous data to the application.
  while (true) {
    auto it = reassembly_.begin();
    if (it == reassembly_.end() || it->first > delivered_) break;
    Bytes chunk = std::move(it->second);
    const std::uint64_t chunk_start = it->first;
    reassembly_.erase(it);
    if (chunk_start + chunk.size() <= delivered_) continue;  // stale overlap
    const std::size_t skip = static_cast<std::size_t>(delivered_ - chunk_start);
    BytesView fresh = BytesView(chunk).subspan(skip);
    delivered_ += fresh.size();
    const bool at_fin = fin_received_ && delivered_ == fin_offset_;
    result.newly_delivered += fresh.size();
    if (on_data_ && (!fresh.empty() || at_fin) && !fin_signalled_) {
      if (at_fin) fin_signalled_ = true;
      on_data_(fresh, at_fin);
    }
    if (at_fin) result.fin_delivered = true;
  }
  LL_INVARIANT(!fin_received_ || delivered_ <= fin_offset_)
      << "stream " << id_ << " delivered " << delivered_
      << " bytes past FIN offset " << fin_offset_;
  // Empty FIN (or FIN that became contiguous with no buffered data).
  if (fin_received_ && delivered_ == fin_offset_ && !fin_signalled_) {
    fin_signalled_ = true;
    result.fin_delivered = true;
    if (on_data_) on_data_({}, true);
  }
  return result;
}

std::optional<std::uint64_t> QuicStream::take_window_update(
    TimePoint now, Duration rtt_floor, std::size_t max_window) {
  // Flow control credits only what the application has consumed, which can
  // never outrun what was delivered to it.
  LL_DCHECK(consumed_ <= delivered_)
      << "stream " << id_ << " consumed " << consumed_ << " > delivered "
      << delivered_;
  // Extend when half the advertised window has been consumed.
  std::uint64_t target = consumed_ + recv_window_;
  if (target > advertised_max_ &&
      target - advertised_max_ >= recv_window_ / 2) {
    // Auto-tune: back-to-back updates mean the reader outpaces the window.
    if (max_window > recv_window_ && rtt_floor > kNoDuration &&
        any_window_update_ && now - last_window_update_ < 2 * rtt_floor) {
      recv_window_ = std::min(recv_window_ * 2, max_window);
      target = consumed_ + recv_window_;
    }
    any_window_update_ = true;
    last_window_update_ = now;
    advertised_max_ = target;
    return target;
  }
  return std::nullopt;
}

}  // namespace longlook::quic
