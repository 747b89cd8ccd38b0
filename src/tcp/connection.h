// TcpConnection: the kernel-TCP baseline substrate (Cubic + SACK + DSACK).
//
// Models what the paper's Apache/Linux stack contributes to the comparison:
//  * 1-RTT TCP handshake followed by a 2-RTT TLS-1.2 exchange (real bytes on
//    the stream), versus QUIC's 0/1-RTT setup;
//  * a single ordered byte stream, so HTTP/2 multiplexing suffers
//    head-of-line blocking under loss;
//  * cumulative ACKs + SACK scoreboard; DSACK lets the sender detect
//    spurious retransmits and adapt its dupACK threshold to reordering
//    (RR-TCP [41]) — the robustness QUIC's fixed NACK threshold lacks;
//  * delayed ACKs (every 2nd segment / 40 ms), no pacing, IW10, Linux-style
//    HyStart clamping.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "cc/cubic_sender.h"
#include "cc/rtt_estimator.h"
#include "net/host.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "sim/timer.h"
#include "tcp/segment.h"

namespace longlook::tcp {

struct TcpConfig {
  std::size_t mss = kTcpMss;
  std::size_t initial_cwnd_packets = 10;   // Linux IW10
  std::size_t max_cwnd_packets = 1 << 20;  // kernel: effectively unbounded
  std::size_t recv_buffer = 6 * 1024 * 1024;
  // Kernel-accurate HyStart clamp (HYSTART_DELAY_MIN/MAX = 4/16 ms). TCP
  // still dodges the paper's spurious slow-start exit because the min-RTT
  // inflation that triggers it is a *userspace* QUIC artifact (Sec. 5.2);
  // the kernel's RTT floor only rises with genuine queueing.
  HystartConfig hystart{true, milliseconds(4), milliseconds(16), 8};
  bool sack_enabled = true;
  bool dsack_enabled = true;  // reorder-adaptive dupthresh (RR-TCP)
  std::size_t dupthresh = 3;
  std::size_t max_dupthresh = 64;
  bool tls_enabled = true;  // TLS 1.2 model: 2 RTT before app data
  Duration delayed_ack_timeout = milliseconds(40);
  std::size_t ack_every_n = 2;
  // Structured event tracing (docs/trace_schema.md). Null disables; the sink
  // must outlive the connection. Not owned.
  obs::TraceSink* trace = nullptr;
  // Periodic state sampling (`ts:conn` records, schema v3). Null disables;
  // the sampler must outlive the connection. Not owned.
  obs::StateSampler* sampler = nullptr;
  // Crash-dump ring buffer. When enabled, the connection routes its trace
  // events through a private FlightRecorder wrapping `trace` above.
  obs::FlightRecorderConfig flight{};

  CubicSenderConfig make_cc_config() const;
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t segments_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t retransmitted_segments = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t tail_loss_probes = 0;
  std::uint64_t rto_count = 0;
  std::uint64_t dsack_events = 0;     // spurious retransmits detected
  std::uint64_t handshake_round_trips = 0;  // TCP + TLS before app data
};

class TcpConnection : public obs::Sampleable {
 public:
  TcpConnection(Simulator& sim, Host& host, TcpConfig config, Address peer,
                Port peer_port, Port local_port, bool is_client);
  ~TcpConnection() override;

  // Client: start handshake; callback fires when app data may flow
  // (after TCP + TLS).
  void connect(std::function<void()> established_cb);
  // Server side (created by TcpServer on SYN): register readiness callback.
  void set_on_established(std::function<void()> cb) {
    on_established_ = std::move(cb);
  }

  // --- Application byte stream ---
  void write(BytesView data, bool fin);
  void set_on_data(std::function<void(BytesView, bool fin)> fn) {
    on_data_ = std::move(fn);
  }

  void on_segment(const TcpSegment& seg, TimePoint now);

  bool established() const { return app_established_; }
  bool peer_fin_received() const { return fin_delivered_; }

  // --- Instrumentation ---
  const RttEstimator& rtt() const { return rtt_; }
  CubicSender& sender() { return *cc_; }
  const CubicSender& sender() const { return *cc_; }
  std::size_t congestion_window() const { return cc_->congestion_window(); }
  std::size_t dupthresh() const { return dupthresh_; }
  const TcpStats& stats() const { return stats_; }
  std::uint64_t delivered_app_bytes() const { return app_delivered_; }
  // Bytes written by the app but not yet transmitted (backpressure signal).
  std::size_t send_backlog() const {
    return static_cast<std::size_t>(send_end() - snd_nxt_);
  }
  // Stream bytes still held for (re)transmission: unacknowledged plus not
  // yet sent. Acknowledged bytes are released as the ACKs arrive.
  std::size_t send_buffered() const { return send_buffer_.size(); }

  // Push buffered app data out (call after write()).
  void flush() { try_send(); }

  // obs::Sampleable — periodic `ts:conn` snapshots (obs/sampler.h).
  void sample_state(obs::ConnSample& out) const override;
  std::string_view sample_proto() const override { return "tcp"; }
  std::string_view sample_side() const override { return side(); }
  // The client's ephemeral port identifies the flow on both ends.
  std::uint64_t sample_flow_id() const override {
    return is_client_ ? local_port_ : peer_port_;
  }

 private:
  enum class State {
    kClosed,
    kSynSent,
    kSynRcvd,
    kEstablished,  // TCP established; TLS may still be running
  };

  struct SegMeta {
    PacketNumber pn = 0;
    std::size_t len = 0;
    TimePoint sent_time{};
    bool retransmitted = false;
  };

  void send_syn();
  void send_syn_ack();
  void enter_established(TimePoint now);
  void tls_step_on_receive();
  void maybe_fire_app_established();

  void try_send();
  bool send_one_segment(TimePoint now);
  // One past the last stream offset written (TLS, app data, FIN byte).
  std::uint64_t send_end() const { return send_base_ + send_buffer_.size(); }
  // Drops the acknowledged bytes at the front of send_buffer_ once they
  // make up half of it.
  void release_acked();
  void send_segment_at(std::uint64_t offset, std::size_t len, bool is_retx,
                       TimePoint now);
  void send_pure_ack(bool immediate_dsack = false,
                     std::optional<SackBlock> dsack_block = std::nullopt);
  TcpSegment make_base_segment() const;
  void transmit(TcpSegment&& seg);

  void process_ack(const TcpSegment& seg, TimePoint now);
  void merge_sack(const std::vector<SackBlock>& blocks, bool dsack);
  void check_sack_scoreboard() const;
  std::size_t sacked_bytes_in_flight() const;
  std::size_t bytes_in_flight() const;
  std::size_t lost_not_retransmitted_bytes() const;
  std::optional<std::uint64_t> next_hole_to_retransmit() const;
  bool offset_sacked(std::uint64_t offset) const;
  void enter_recovery(TimePoint now, std::uint64_t hole_offset);
  void update_reordering(std::uint64_t newly_acked_start,
                         bool any_retransmitted);

  void process_payload(const TcpSegment& seg, TimePoint now);
  void deliver_in_order();
  void maybe_send_ack(bool out_of_order, std::optional<SackBlock> dsack);
  std::vector<SackBlock> build_sack_blocks() const;
  std::uint64_t advertised_window() const;

  void arm_rto();
  void on_rto();
  void arm_probe_timer();
  void on_probe_timer();
  void on_delayed_ack_timer();

  // Structured-trace helpers: effective sink pointer (the flight recorder
  // when one is attached, else the configured sink; null == disabled) and
  // the constant "side" tag for this endpoint's events.
  obs::TraceSink* trace() const { return effective_trace_; }
  const char* side() const { return is_client_ ? "client" : "server"; }

  Simulator& sim_;
  Host& host_;
  TcpConfig config_;
  Address peer_ = 0;
  Port peer_port_ = 0;
  Port local_port_ = 0;
  bool is_client_ = false;
  State state_ = State::kClosed;

  // Optional crash-dump ring (config_.flight.enabled); wraps config_.trace.
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  // What trace() returns: flight_recorder_.get() when present, else
  // config_.trace (possibly null).
  obs::TraceSink* effective_trace_ = nullptr;

  RttEstimator rtt_;
  std::unique_ptr<CubicSender> cc_;
  Timer rto_timer_;
  Timer probe_timer_;  // tail loss probe (Linux 3.10+, RFC draft [22])
  Timer delack_timer_;
  int probe_count_ = 0;
  TcpStats stats_;

  // --- Send side ---
  // Logical stream (TLS bytes then app bytes, +fin byte) from offset
  // send_base_ on; the acknowledged bytes below it are gone.
  Bytes send_buffer_;
  std::uint64_t send_base_ = 0;
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  bool fin_queued_ = false;
  std::uint64_t fin_offset_ = 0;  // offset of the virtual FIN byte
  std::uint64_t peer_rwnd_ = 64 * 1024;
  std::map<std::uint64_t, SegMeta> in_flight_;  // start offset -> meta
  PacketNumber next_pn_ = 1;
  std::vector<SackBlock> sacked_;  // peer-reported, sorted, merged
  std::uint64_t highest_sacked_ = 0;
  std::size_t dupthresh_{3};
  std::size_t dupack_count_ = 0;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;
  std::uint64_t recovery_point_ = 0;
  std::uint64_t retx_next_ = 0;  // next hole retransmit cursor
  int consecutive_rto_ = 0;
  int syn_retries_ = 0;
  TimePoint last_rto_at_{};

  // --- Receive side ---
  std::map<std::uint64_t, Bytes> reassembly_;
  std::uint64_t rcv_nxt_ = 0;
  std::optional<std::uint64_t> peer_fin_offset_;
  bool fin_delivered_ = false;
  std::size_t segs_since_ack_ = 0;
  std::uint64_t last_rx_tsval_ = 0;  // echoed back as ts_ecr

  // --- TLS model ---
  // Script: client sends 517, server replies 4096, client sends 325,
  // server replies 51. App data flows afterwards.
  bool tls_done_ = false;
  std::size_t tls_recv_expected_ = 0;  // bytes of the current inbound message
  std::size_t tls_recv_count_ = 0;
  int tls_phase_ = 0;
  std::uint64_t tls_bytes_to_consume_ = 0;  // inbound TLS bytes to swallow

  bool app_established_ = false;
  std::function<void()> on_established_;
  std::function<void(BytesView, bool)> on_data_;
  std::uint64_t app_delivered_ = 0;
  std::uint64_t app_recv_offset_ = 0;  // stream offset where app data starts
};

}  // namespace longlook::tcp
