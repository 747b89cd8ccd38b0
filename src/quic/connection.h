// QuicConnection: a full userspace transport endpoint.
//
// Combines monotonic packet numbers, unambiguous timestamped ACKs,
// NACK-threshold loss detection with TLP and RTO, Cubic (or BBR) congestion
// control with pacing, stream multiplexing with two-level flow control, and
// the gQUIC 0-RTT handshake. Every mechanism the paper's root-cause analysis
// touches is instrumented: CC state transitions, cwnd, loss counters,
// spurious-loss counters.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cc/bbr_lite.h"
#include "cc/cubic_sender.h"
#include "cc/rtt_estimator.h"
#include "net/host.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "quic/ack_manager.h"
#include "quic/frames.h"
#include "quic/sent_packet_manager.h"
#include "quic/stream.h"
#include "quic/version.h"
#include "sim/timer.h"

namespace longlook::quic {

enum class CcAlgorithm { kCubic, kBbr };

struct QuicConfig {
  VersionProfile version = deployed_profile(34);
  CcAlgorithm cc_algorithm = CcAlgorithm::kCubic;
  // Loss detection: threshold defaults to the version profile's.
  LossDetectionMode loss_mode = LossDetectionMode::kFixedNack;
  std::optional<std::size_t> nack_threshold;  // override (Fig. 10 sweep)
  AckManagerConfig ack{};
  std::size_t stream_window = kDefaultStreamWindow;
  std::size_t connection_window = kDefaultConnectionWindow;
  std::size_t max_streams = kDefaultMaxStreams;  // MSPC
  bool enable_zero_rtt = true;
  bool pacing = true;
  std::size_t initial_cwnd_packets = 32;
  HystartConfig hystart{};
  // Userspace stream-bookkeeping cost charged per emitted ACK, scaled by the
  // number of streams currently mid-receive. This models the paper's
  // observed (and unexplained, Sec. 5.2 fn. 12) "sudden increase in the
  // minimum observed RTT when multiplexing many objects": as round-robin
  // multiplexing brings more streams into play, ACK emission lags more,
  // the sender's per-round RTT floor rises, and Hybrid Slow Start exits
  // early. Irrelevant for pages with few objects.
  Duration ack_processing_per_active_stream = microseconds(150);
  // Structured event tracing (docs/trace_schema.md). Null disables; the sink
  // must outlive the connection. Not owned.
  obs::TraceSink* trace = nullptr;
  // Periodic state sampling (`ts:conn` records, schema v3). Null disables;
  // the sampler must outlive the connection. Not owned.
  obs::StateSampler* sampler = nullptr;
  // Crash-dump ring buffer. When enabled, the connection routes its trace
  // events through a private FlightRecorder wrapping `trace` above.
  obs::FlightRecorderConfig flight{};

  LossDetectionConfig make_loss_config() const;
  CubicSenderConfig make_cc_config() const;
};

// Client-side 0-RTT state: source-address tokens cached per server.
// Experiments clear sockets between runs but deliberately keep this cache
// (Sec. 3.1), exactly like the paper's methodology.
class TokenCache {
 public:
  void store(Address server, std::uint64_t token) { tokens_[server] = token; }
  std::optional<std::uint64_t> lookup(Address server) const {
    auto it = tokens_.find(server);
    if (it == tokens_.end()) return std::nullopt;
    return it->second;
  }
  void clear() { tokens_.clear(); }

 private:
  std::map<Address, std::uint64_t> tokens_;
};

struct ConnectionStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t stream_bytes_delivered = 0;
  std::uint64_t packets_declared_lost = 0;
  std::uint64_t spurious_losses = 0;
  std::uint64_t tail_loss_probes = 0;
  std::uint64_t rto_count = 0;
  std::uint64_t handshake_round_trips = 0;  // 0 for 0-RTT resumption
};

class QuicConnection : public obs::Sampleable {
 public:
  QuicConnection(Simulator& sim, Host& host, Perspective perspective,
                 ConnectionId cid, Address peer, Port peer_port,
                 Port local_port, QuicConfig config,
                 TokenCache* token_cache = nullptr);
  ~QuicConnection() override;

  // --- Client API ---
  // Starts the handshake (0-RTT if a token is cached and enabled).
  void connect(std::function<void()> established_cb);
  QuicStream* open_stream();
  bool can_open_stream() const;

  // --- Server API ---
  void set_on_new_stream(std::function<void(QuicStream&)> fn) {
    on_new_stream_ = std::move(fn);
  }

  // --- Both sides ---
  bool established() const { return established_; }
  ConnectionId connection_id() const { return cid_; }
  // Push buffered stream data out (call after QuicStream::write()).
  void flush();
  void close();
  bool closed() const { return closed_; }

  // Datagram entry point (endpoint demultiplexers call this).
  void process_packet(const QuicPacket& packet, TimePoint now);

  // --- Instrumentation ---
  SendAlgorithm& send_algorithm() { return *cc_; }
  const SendAlgorithm& send_algorithm() const { return *cc_; }
  const RttEstimator& rtt() const { return rtt_; }
  const SentPacketManager& sent_packets() const { return spm_; }
  const ConnectionStats& stats() const { return stats_; }
  std::size_t congestion_window() const { return cc_->congestion_window(); }
  std::size_t bytes_in_flight() const { return spm_.bytes_in_flight(); }
  QuicStream* stream(StreamId id);
  // Streams the per-packet walks still visit: the active ones plus any
  // finished ones not yet pruned. Stays near the number in flight however
  // many streams the connection has opened.
  std::size_t live_stream_count() const { return live_.size(); }
  const QuicConfig& config() const { return config_; }
  BbrLite* bbr() { return bbr_; }

  // obs::Sampleable — periodic `ts:conn` snapshots (obs/sampler.h).
  void sample_state(obs::ConnSample& out) const override;
  std::string_view sample_proto() const override { return "quic"; }
  std::string_view sample_side() const override { return side(); }
  std::uint64_t sample_flow_id() const override { return cid_; }

 private:
  void write_packets();
  bool build_and_send_packet(bool ack_only_allowed);
  void send_ack_now();
  void process_frame(const Frame& frame, TimePoint now);
  void handle_handshake(const HandshakeFrame& hs, TimePoint now);
  void handle_ack(const AckFrame& ack, TimePoint now);
  void handle_stream(const StreamFrame& sf, TimePoint now);
  void on_consumed(StreamId sid, std::size_t bytes);
  void on_established(std::size_t peer_window);
  QuicStream& get_or_create_stream(StreamId id);
  std::uint64_t connection_send_allowance() const;
  void set_retransmission_alarm();
  void on_retransmission_alarm();
  void on_ack_alarm();
  Duration ack_emission_cost() const;
  void maybe_note_app_limited();
  void send_quic_packet(QuicPacket&& pkt, bool retransmittable,
                        std::vector<StreamDataRef> data);
  bool stream_is_active(const QuicStream& s) const;
  // Structured-trace helpers: effective sink pointer (the flight recorder
  // when one is attached, else the configured sink; null == disabled) and
  // the constant "side" tag for this endpoint's events.
  obs::TraceSink* trace() const { return effective_trace_; }
  const char* side() const {
    return perspective_ == Perspective::kClient ? "client" : "server";
  }

  Simulator& sim_;
  Host& host_;
  Perspective perspective_;
  ConnectionId cid_;
  Address peer_ = 0;
  Port peer_port_ = 0;
  Port local_port_ = 0;
  QuicConfig config_;
  TokenCache* token_cache_;

  // Optional crash-dump ring (config_.flight.enabled); wraps config_.trace.
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  // What trace() returns: flight_recorder_.get() when present, else
  // config_.trace (possibly null).
  obs::TraceSink* effective_trace_ = nullptr;

  RttEstimator rtt_;
  std::unique_ptr<SendAlgorithm> cc_;
  CubicSender* cubic_ = nullptr;  // non-owning view when algo == kCubic
  BbrLite* bbr_ = nullptr;        // non-owning view when algo == kBbr
  SentPacketManager spm_;
  AckManager ack_manager_;
  Timer retransmission_timer_;
  Timer ack_timer_;
  Timer pacing_timer_;

  PacketNumber next_packet_number_ = 1;
  bool established_ = false;
  bool closed_ = false;
  // Deferred CPU-cost callbacks (app consume, ACK emission) capture a weak
  // reference to this token instead of a raw `this`, so events that outlive
  // the connection become no-ops rather than use-after-frees.
  std::shared_ptr<char> live_token_ = std::make_shared<char>(0);
  std::function<void()> on_established_cb_;
  std::function<void(QuicStream&)> on_new_stream_;

  // Handshake state.
  bool chlo_sent_ = false;
  std::vector<HandshakeFrame> pending_handshake_frames_;
  std::vector<HandshakeFrame> sent_handshake_log_;  // for loss recovery
  std::uint64_t issued_token_ = 0;

  // Streams.
  std::map<StreamId, std::unique_ptr<QuicStream>> streams_;
  StreamId next_stream_id_ = kFirstClientStreamId;
  // Every stream in creation order; a stream's index here is its place in
  // the round robin. Raw pointers are stable: streams_ owns each QuicStream
  // behind a unique_ptr and never erases entries.
  std::vector<QuicStream*> send_order_;
  // Indices into send_order_ of the live streams, which every per-stream
  // walk iterates instead of send_order_. Live is a superset of active
  // (stream_is_active), and only active streams have data to send or are
  // mid-receive. A stream enters on creation and again on every write or
  // requeue, the only events that can reactivate it (receive_finished()
  // never reverts); walks erase entries they find inactive. Mutable so the
  // const queries can prune too.
  mutable std::set<std::size_t> live_;
  std::size_t rr_cursor_ = 0;  // send_order_ index the round robin is past

  // Connection-level flow control.
  std::uint64_t conn_peer_max_ = 0;     // what we may send
  std::uint64_t conn_bytes_sent_ = 0;   // fresh stream bytes sent
  std::uint64_t conn_delivered_ = 0;    // bytes delivered to our app
  std::uint64_t conn_consumed_ = 0;     // bytes the app has finished reading
  TimePoint consume_busy_until_{};      // serial app-CPU consumption queue
  std::uint64_t conn_advertised_max_ = 0;
  std::uint64_t conn_recv_window_ = 0;  // auto-tuned receive window
  TimePoint last_conn_update_{};
  bool any_conn_update_ = false;
  std::vector<WindowUpdateFrame> pending_window_updates_;

  int tlp_count_ = 0;
  int consecutive_rto_ = 0;

  ConnectionStats stats_;
};

}  // namespace longlook::quic
