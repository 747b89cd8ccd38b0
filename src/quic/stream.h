// A bidirectional QUIC stream: send buffering, retransmission queue,
// receive reassembly, and stream-level flow control.
//
// Streams are independent — a hole in one stream's data never stalls
// delivery on another (no head-of-line blocking across objects, one of
// QUIC's headline advantages, Sec. 2.1). Retransmitted data is re-queued
// here and goes out under a fresh packet number.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "quic/types.h"
#include "util/bytes.h"
#include "util/stream_buffer.h"

namespace longlook::quic {

struct SendChunk {
  std::uint64_t offset = 0;
  Bytes data;
  bool fin = false;
  bool is_retransmission = false;
};

class QuicStream {
 public:
  QuicStream(StreamId id, std::size_t send_window, std::size_t recv_window);

  StreamId id() const { return id_; }

  // --- Application send side ---
  void write(BytesView data, bool fin);
  bool fin_written() const { return fin_written_; }

  // --- Application receive side ---
  // Called with in-order data as it becomes contiguous; fin=true on the
  // final invocation.
  void set_on_data(std::function<void(BytesView, bool fin)> fn) {
    on_data_ = std::move(fn);
  }

  // --- Packetisation interface (driven by the connection) ---
  // Called whenever the stream may have gained data to send (an app write
  // or a loss requeue): the only events that can make has_pending_data()
  // true again.
  void set_on_sendable(std::function<void()> fn) {
    on_sendable_ = std::move(fn);
  }
  // True if retransmission or fresh data exists, regardless of flow control.
  bool has_pending_data() const;
  // True if pending data exists but the peer's stream window blocks it.
  bool blocked_by_stream_fc() const;
  // True if loss-recovery data awaits retransmission (never flow-blocked).
  bool has_retransmission_data() const { return !retx_.empty(); }
  // Returns the next chunk to send, at most max_len bytes; fresh data is
  // additionally limited by `conn_allowance` (connection flow control).
  // Books the chunk as sent.
  std::optional<SendChunk> take_chunk(std::size_t max_len,
                                      std::uint64_t conn_allowance);
  // Loss: schedule [offset, offset+len) (+fin) for retransmission.
  void requeue(std::uint64_t offset, std::size_t len, bool fin);
  // A declared loss turned out spurious (the packet arrived late): drop any
  // still-queued retransmission of [offset, offset+len), splitting ranges
  // that only partially overlap. `fin` means the late packet delivered the
  // FIN, so a queued FIN resend is redundant too. Already-retransmitted
  // data is unaffected (the receiver discards duplicates).
  void cancel_retransmission(std::uint64_t offset, std::size_t len, bool fin);

  // --- Peer flow control ---
  void on_window_update(std::uint64_t max_offset);
  std::uint64_t peer_max_offset() const { return peer_max_offset_; }

  // --- Receive path ---
  struct RecvResult {
    std::size_t newly_delivered = 0;  // bytes consumed by the app just now
    bool fin_delivered = false;
  };
  RecvResult on_stream_frame(std::uint64_t offset, BytesView data, bool fin);

  // If the advertised receive window should be extended, returns the new
  // max offset to put in a WINDOW_UPDATE (and books it as advertised).
  // When updates come faster than ~2 RTTs apart the window doubles
  // (receiver auto-tuning, up to `max_window`): the reader is keeping up,
  // so the window — not the reader — was the limit.
  std::optional<std::uint64_t> take_window_update(
      TimePoint now = TimePoint{}, Duration rtt_floor = kNoDuration,
      std::size_t max_window = 0);
  // Currently advertised max offset (for regenerating a lost WINDOW_UPDATE).
  std::uint64_t advertised_max() const { return advertised_max_; }

  bool receive_finished() const { return fin_received_ && delivered_ == fin_offset_; }
  // Application finished reading `n` more bytes: flow control may now
  // re-advertise them (the connection schedules this after the device's
  // consumption cost).
  void on_consumed(std::size_t n) { consumed_ += n; }
  bool receive_started() const {
    return delivered_ > 0 || fin_received_ || !reassembly_.empty();
  }
  std::uint64_t delivered_bytes() const { return delivered_; }
  std::uint64_t bytes_sent() const { return next_send_offset_; }
  // Bytes written by the app but not yet sent (backpressure signal).
  std::size_t send_backlog() const {
    return static_cast<std::size_t>(send_buffer_.end_offset() -
                                    next_send_offset_);
  }

 private:
  struct RetxRange {
    std::uint64_t offset = 0;
    std::size_t len = 0;
    bool fin = false;
  };

  StreamId id_ = 0;
  // Send side. Every byte written stays until the stream is destroyed: a
  // late loss, a TLP or an RTO can requeue any range still outstanding.
  util::StreamBuffer send_buffer_;
  std::uint64_t next_send_offset_ = 0;
  std::uint64_t peer_max_offset_ = 0;
  std::vector<RetxRange> retx_;
  // Receive side.
  std::size_t recv_window_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t consumed_ = 0;  // app-consumed: what flow control credits
  std::uint64_t advertised_max_ = 0;
  TimePoint last_window_update_{};
  std::map<std::uint64_t, Bytes> reassembly_;
  std::uint64_t fin_offset_ = 0;
  // The flags share one word: rpc_churn keeps thousands of streams alive.
  bool fin_written_ = false;
  bool fin_sent_ = false;
  bool any_window_update_ = false;
  bool fin_received_ = false;
  bool fin_signalled_ = false;
  std::function<void(BytesView, bool)> on_data_;
  std::function<void()> on_sendable_;
};

}  // namespace longlook::quic
