#include "quic/connection.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace longlook::quic {

namespace {
const char* handshake_message_name(HandshakeMessageType t) {
  switch (t) {
    case HandshakeMessageType::kInchoateChlo: return "inchoate_chlo";
    case HandshakeMessageType::kRej: return "rej";
    case HandshakeMessageType::kFullChlo: return "full_chlo";
    case HandshakeMessageType::kShlo: return "shlo";
  }
  return "?";
}
}  // namespace

LossDetectionConfig QuicConfig::make_loss_config() const {
  LossDetectionConfig cfg;
  cfg.mode = loss_mode;
  cfg.nack_threshold = nack_threshold.value_or(version.nack_threshold);
  return cfg;
}

CubicSenderConfig QuicConfig::make_cc_config() const {
  CubicSenderConfig cfg;
  cfg.mss = kDefaultMss;
  cfg.num_connections = version.num_connections;
  cfg.initial_cwnd_packets = initial_cwnd_packets;
  cfg.max_cwnd_packets = version.macw_packets;
  cfg.hystart = hystart;
  cfg.pacing_enabled = pacing;
  cfg.ssthresh_from_rwnd_bug = version.ssthresh_rwnd_bug;
  return cfg;
}

QuicConnection::QuicConnection(Simulator& sim, Host& host,
                               Perspective perspective, ConnectionId cid,
                               Address peer, Port peer_port, Port local_port,
                               QuicConfig config, TokenCache* token_cache)
    : sim_(sim),
      host_(host),
      perspective_(perspective),
      cid_(cid),
      peer_(peer),
      peer_port_(peer_port),
      local_port_(local_port),
      config_(config),
      token_cache_(token_cache),
      spm_(config.make_loss_config()),
      ack_manager_(config.ack),
      retransmission_timer_(sim, [this] { on_retransmission_alarm(); }),
      ack_timer_(sim, [this] { on_ack_alarm(); }),
      pacing_timer_(sim, [this] { write_packets(); }),
      conn_peer_max_(config.connection_window),
      conn_advertised_max_(config.connection_window),
      conn_recv_window_(config.connection_window) {
  if (config_.cc_algorithm == CcAlgorithm::kCubic) {
    auto cubic = std::make_unique<CubicSender>(rtt_, config_.make_cc_config());
    cubic_ = cubic.get();
    cc_ = std::move(cubic);
  } else {
    BbrConfig bbr_cfg;
    bbr_cfg.initial_cwnd_packets = config_.initial_cwnd_packets;
    auto bbr = std::make_unique<BbrLite>(rtt_, bbr_cfg);
    bbr_ = bbr.get();
    cc_ = std::move(bbr);
  }
  effective_trace_ = config_.trace;
  if (config_.flight.enabled) {
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(
        config_.flight, config_.trace,
        std::string("quic_") + side() + "_" + std::to_string(cid_));
    effective_trace_ = flight_recorder_.get();
  }
  if (trace() != nullptr) cc_->set_trace(trace(), side());
  // Echo this connection's ts:conn samples through the flight recorder so
  // post-mortem dumps interleave samples with protocol events.
  if (config_.sampler != nullptr)
    config_.sampler->add_connection(this, flight_recorder_.get());
}

QuicConnection::~QuicConnection() {
  if (config_.sampler != nullptr) config_.sampler->remove_connection(this);
}

void QuicConnection::sample_state(obs::ConnSample& out) const {
  out.cwnd_bytes = cc_->congestion_window();
  out.ssthresh_bytes = cc_->ssthresh();
  out.srtt_ns = rtt_.smoothed().count();
  out.rttvar_ns = rtt_.mean_deviation().count();
  out.bytes_in_flight = spm_.bytes_in_flight();
  out.pacing_bps = cc_->pacing_rate_bps();
  out.delivered_bytes = stats_.stream_bytes_delivered;
}

void QuicConnection::connect(std::function<void()> established_cb) {
  on_established_cb_ = std::move(established_cb);
  const auto token =
      token_cache_ != nullptr && config_.enable_zero_rtt
          ? token_cache_->lookup(peer_)
          : std::nullopt;
  HandshakeFrame chlo;
  chlo.client_connection_window = config_.connection_window;
  if (token.has_value()) {
    // 0-RTT: full CHLO with cached token; data may follow in the same flight.
    chlo.type = HandshakeMessageType::kFullChlo;
    chlo.token = *token;
    pending_handshake_frames_.push_back(chlo);
    chlo_sent_ = true;
    stats_.handshake_round_trips = 0;
    established_ = true;
    on_established(config_.connection_window);
    if (on_established_cb_) on_established_cb_();
  } else {
    chlo.type = HandshakeMessageType::kInchoateChlo;
    pending_handshake_frames_.push_back(chlo);
    chlo_sent_ = true;
    stats_.handshake_round_trips = 1;
  }
  flush();
}

QuicStream* QuicConnection::open_stream() {
  if (!can_open_stream()) return nullptr;
  const StreamId id = next_stream_id_;
  next_stream_id_ += 2;
  QuicStream& s = get_or_create_stream(id);
  return &s;
}

bool QuicConnection::can_open_stream() const {
  // Predicates are evaluated on the streams' current state: a fin can
  // complete inside an on_data callback that then asks this question.
  std::erase_if(live_, [this](std::size_t i) {
    return !stream_is_active(*send_order_[i]);
  });
  return live_.size() < config_.max_streams;
}

bool QuicConnection::stream_is_active(const QuicStream& s) const {
  // A stream stops counting against MSPC once both directions finished.
  return !s.receive_finished() || s.has_pending_data();
}

QuicStream& QuicConnection::get_or_create_stream(StreamId id) {
  auto it = streams_.find(id);
  if (it != streams_.end()) return *it->second;
  auto stream = std::make_unique<QuicStream>(id, config_.stream_window,
                                             config_.stream_window);
  QuicStream& ref = *stream;
  streams_.emplace(id, std::move(stream));
  const std::size_t index = send_order_.size();
  send_order_.push_back(&ref);
  live_.insert(index);
  ref.set_on_sendable([this, index] { live_.insert(index); });
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:stream_opened", sim_.now())
                        .s("side", side())
                        .u("sid", id));
  }
  const bool peer_initiated = perspective_ == Perspective::kServer;
  if (peer_initiated && on_new_stream_) on_new_stream_(ref);
  return ref;
}

QuicStream* QuicConnection::stream(StreamId id) {
  auto it = streams_.find(id);
  return it == streams_.end() ? nullptr : it->second.get();
}

std::uint64_t QuicConnection::connection_send_allowance() const {
  return conn_peer_max_ > conn_bytes_sent_ ? conn_peer_max_ - conn_bytes_sent_
                                           : 0;
}

void QuicConnection::flush() { write_packets(); }

void QuicConnection::close() {
  if (closed_) return;
  QuicPacket pkt;
  pkt.connection_id = cid_;
  pkt.packet_number = next_packet_number_++;
  pkt.frames.push_back(ConnectionCloseFrame{0, "done"});
  send_quic_packet(std::move(pkt), false, {});
  closed_ = true;
  retransmission_timer_.cancel();
  ack_timer_.cancel();
  pacing_timer_.cancel();
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:close", sim_.now()).s("side", side()));
  }
}

// --- Receive path ---------------------------------------------------------

void QuicConnection::process_packet(const QuicPacket& packet, TimePoint now) {
  if (closed_) return;
  ++stats_.packets_received;
  bool retransmittable = false;
  for (const Frame& f : packet.frames) {
    if (is_retransmittable(f)) retransmittable = true;
  }
  const bool duplicate = ack_manager_.on_packet_received(
      now, packet.packet_number, retransmittable);
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:packet_received", now)
                        .s("side", side())
                        .u("pn", packet.packet_number)
                        .u("frames", packet.frames.size())
                        .b("dup", duplicate));
  }
  if (!duplicate) {
    for (const Frame& f : packet.frames) process_frame(f, now);
  }
  write_packets();
}

void QuicConnection::process_frame(const Frame& frame, TimePoint now) {
  std::visit(
      [this, now](const auto& f) {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, StreamFrame>) {
          handle_stream(f, now);
        } else if constexpr (std::is_same_v<T, AckFrame>) {
          handle_ack(f, now);
        } else if constexpr (std::is_same_v<T, WindowUpdateFrame>) {
          if (f.stream_id == 0) {
            conn_peer_max_ = std::max(conn_peer_max_, f.max_offset);
          } else if (QuicStream* s = stream(f.stream_id)) {
            s->on_window_update(f.max_offset);
          }
        } else if constexpr (std::is_same_v<T, HandshakeFrame>) {
          handle_handshake(f, now);
        } else if constexpr (std::is_same_v<T, StopWaitingFrame>) {
          ack_manager_.on_stop_waiting(f.least_unacked);
        } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
          closed_ = true;
          retransmission_timer_.cancel();
          ack_timer_.cancel();
          pacing_timer_.cancel();
        } else {
          // Ping/Blocked need no action beyond the ACK they elicit.
        }
      },
      frame);
}

void QuicConnection::handle_handshake(const HandshakeFrame& hs, TimePoint now) {
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:handshake", now)
                        .s("side", side())
                        .s("msg", handshake_message_name(hs.type)));
  }
  switch (hs.type) {
    case HandshakeMessageType::kInchoateChlo: {
      if (perspective_ != Perspective::kServer) break;
      // Issue a source-address token the client can replay for 0-RTT.
      issued_token_ = 0x517E5EED ^ cid_;
      HandshakeFrame rej;
      rej.type = HandshakeMessageType::kRej;
      rej.token = issued_token_;
      rej.server_config_id = 1;
      pending_handshake_frames_.push_back(rej);
      break;
    }
    case HandshakeMessageType::kRej: {
      if (perspective_ != Perspective::kClient) break;
      if (token_cache_ != nullptr) token_cache_->store(peer_, hs.token);
      HandshakeFrame full;
      full.type = HandshakeMessageType::kFullChlo;
      full.token = hs.token;
      full.client_connection_window = config_.connection_window;
      pending_handshake_frames_.push_back(full);
      if (!established_) {
        established_ = true;
        on_established(config_.connection_window);
        if (on_established_cb_) on_established_cb_();
      }
      break;
    }
    case HandshakeMessageType::kFullChlo: {
      if (perspective_ != Perspective::kServer) break;
      if (!established_) {
        established_ = true;
        // The CHLO advertises the client's connection receive buffer: this
        // is the value the Chromium-52 bug failed to fold into ssthresh.
        on_established(hs.client_connection_window);
        HandshakeFrame shlo;
        shlo.type = HandshakeMessageType::kShlo;
        shlo.client_connection_window = config_.connection_window;
        pending_handshake_frames_.push_back(shlo);
      }
      break;
    }
    case HandshakeMessageType::kShlo: {
      // Client: learn the server's window (informational in our testbed).
      conn_peer_max_ = std::max(conn_peer_max_, hs.client_connection_window);
      break;
    }
  }
  (void)now;
}

void QuicConnection::on_established(std::size_t peer_window) {
  conn_peer_max_ = std::max<std::uint64_t>(conn_peer_max_, peer_window);
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:established", sim_.now())
                        .s("side", side())
                        .u("rtts", stats_.handshake_round_trips));
  }
  if (cubic_ != nullptr) {
    cubic_->on_connection_established(sim_.now(), peer_window);
  }
}

void QuicConnection::handle_ack(const AckFrame& ack, TimePoint now) {
  const std::size_t prior_in_flight = spm_.bytes_in_flight();
  AckProcessResult result = spm_.on_ack(ack, now, rtt_);
  stats_.packets_declared_lost += result.lost.size();
  if (result.spurious_loss_detected) ++stats_.spurious_losses;
  if (trace() != nullptr) {
    for (const LostPacket& lp : result.lost) {
      trace()->record(obs::TraceEvent("quic:packet_lost", now)
                          .s("side", side())
                          .u("pn", lp.packet_number)
                          .u("bytes", lp.bytes));
    }
    for (const AckedPacket& sp : result.spurious_acked) {
      trace()->record(obs::TraceEvent("quic:spurious_loss", now)
                          .s("side", side())
                          .u("pn", sp.packet_number)
                          .u("bytes", sp.bytes));
    }
    obs::TraceEvent ev("quic:ack_processed", now);
    ev.s("side", side())
        .u("largest", ack.largest_acked)
        .u("acked", result.acked.size())
        .u("lost", result.lost.size())
        .u("spurious", result.spurious_acked.size());
    if (result.rtt_updated) {
      ev.i("rtt_ns", rtt_.latest().count());
    }
    trace()->record(ev);
  }

  // Re-queue lost data for retransmission under fresh packet numbers.
  for (const StreamDataRef& ref : result.lost_data) {
    if (ref.handshake) {
      if (ref.offset < sent_handshake_log_.size()) {
        pending_handshake_frames_.push_back(
            sent_handshake_log_[static_cast<std::size_t>(ref.offset)]);
      }
    } else if (ref.window_update) {
      if (ref.stream_id == 0) {
        pending_window_updates_.push_back({0, conn_advertised_max_});
      } else if (QuicStream* s = stream(ref.stream_id)) {
        pending_window_updates_.push_back({ref.stream_id, s->advertised_max()});
      }
    } else if (QuicStream* s = stream(ref.stream_id)) {
      s->requeue(ref.offset, ref.len, ref.fin);
    }
  }

  // Spuriously-lost data arrived after all: drop its queued retransmission.
  // Runs after the requeue loop so a retransmission that was itself declared
  // lost in this same ACK still gets cancelled (the original delivered).
  for (const StreamDataRef& ref : result.spurious_data) {
    if (ref.handshake || ref.window_update) continue;
    if (QuicStream* s = stream(ref.stream_id)) {
      s->cancel_retransmission(ref.offset, ref.len, ref.fin);
    }
  }

  if (!result.acked.empty()) {
    tlp_count_ = 0;
    consecutive_rto_ = 0;
  }
  cc_->on_congestion_event(now, prior_in_flight, result.acked, result.lost);
  set_retransmission_alarm();
}

void QuicConnection::handle_stream(const StreamFrame& sf, TimePoint now) {
  QuicStream& s = get_or_create_stream(sf.stream_id);
  const auto result = s.on_stream_frame(sf.offset, sf.data, sf.fin);
  conn_delivered_ += result.newly_delivered;
  stats_.stream_bytes_delivered += result.newly_delivered;
  if (result.fin_delivered && trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:stream_fin", now)
                        .s("side", side())
                        .u("sid", s.id())
                        .u("bytes", s.delivered_bytes()));
  }
  if (result.newly_delivered == 0) return;

  // Data reached the application, but flow control only re-advertises it
  // once the app has *consumed* it — which costs device CPU. On a slow
  // phone this queue is what starves the sender of credit (Fig. 13).
  const Duration cost =
      host_.device_profile().app_consume_per_packet *
      static_cast<std::int64_t>((result.newly_delivered + kDefaultMss - 1) /
                                kDefaultMss);
  consume_busy_until_ = std::max(now, consume_busy_until_) + cost;
  const StreamId sid = s.id();
  const std::size_t bytes = result.newly_delivered;
  sim_.schedule_at(consume_busy_until_,
                   [this, sid, bytes,
                    token = std::weak_ptr<char>(live_token_)] {
                     if (token.expired()) return;
                     on_consumed(sid, bytes);
                   });
}

void QuicConnection::on_consumed(StreamId sid, std::size_t bytes) {
  if (closed_) return;
  QuicStream* s = stream(sid);
  if (s == nullptr) return;
  const TimePoint now = sim_.now();
  s->on_consumed(bytes);
  conn_consumed_ += bytes;

  const Duration rtt_floor =
      rtt_.has_samples() ? rtt_.min_rtt() : RttEstimator::kInitialRtt / 2;
  bool updated = false;
  if (auto update = s->take_window_update(now, rtt_floor, kMaxStreamWindow)) {
    pending_window_updates_.push_back({s->id(), *update});
    updated = true;
  }
  std::uint64_t conn_target = conn_consumed_ + conn_recv_window_;
  if (conn_target > conn_advertised_max_ &&
      conn_target - conn_advertised_max_ >= conn_recv_window_ / 2) {
    // Connection-level auto-tuning, mirroring the per-stream rule.
    if (conn_recv_window_ < kMaxConnectionWindow && any_conn_update_ &&
        now - last_conn_update_ < 2 * rtt_floor) {
      conn_recv_window_ = std::min<std::uint64_t>(conn_recv_window_ * 2,
                                                  kMaxConnectionWindow);
      conn_target = conn_consumed_ + conn_recv_window_;
    }
    any_conn_update_ = true;
    last_conn_update_ = now;
    conn_advertised_max_ = conn_target;
    pending_window_updates_.push_back({0, conn_advertised_max_});
    updated = true;
  }
  if (updated) write_packets();
}

// --- Send path -------------------------------------------------------------

void QuicConnection::write_packets() {
  if (closed_) return;
  while (build_and_send_packet(true)) {
  }
  maybe_note_app_limited();
  // Delayed-ack alarm.
  if (ack_manager_.ack_pending() && !ack_manager_.ack_required_now()) {
    if (auto deadline = ack_manager_.ack_deadline()) {
      ack_timer_.set_at(*deadline);
    }
  }
  set_retransmission_alarm();
}

bool QuicConnection::build_and_send_packet(bool ack_only_allowed) {
  const TimePoint now = sim_.now();
  const bool want_ack = ack_manager_.ack_required_now();
  const bool have_handshake = !pending_handshake_frames_.empty();
  const bool have_wu = !pending_window_updates_.empty();

  // Find a stream with something to send under current flow control.
  // Stream data may only flow once the handshake allows it: immediately for
  // 0-RTT resumption, after the REJ round trip otherwise.
  const std::uint64_t conn_allowance = connection_send_allowance();
  bool have_data = false;
  if (established_) for (std::size_t index : live_) {
    const QuicStream* s = send_order_[index];
    if (!s->has_pending_data()) continue;
    if (s->blocked_by_stream_fc()) continue;
    // New data also needs connection-level credit.
    if (conn_allowance == 0 && s->bytes_sent() >= s->peer_max_offset()) {
      continue;
    }
    have_data = true;
    break;
  }

  const bool have_retransmittable = have_handshake || have_wu || have_data;
  if (!have_retransmittable) {
    if (want_ack && ack_only_allowed) {
      send_ack_now();
      return true;  // loop again: pending ack state is now clear
    }
    return false;
  }

  // Congestion and pacing gates apply to retransmittable packets only.
  if (!cc_->can_send(spm_.bytes_in_flight())) {
    if (want_ack && ack_only_allowed) {
      send_ack_now();
      return true;
    }
    return false;
  }
  const TimePoint allowed = cc_->earliest_departure(now);
  if (allowed > now) {
    pacing_timer_.set_at(allowed);
    if (want_ack && ack_only_allowed) {
      send_ack_now();
      return true;
    }
    return false;
  }

  // Assemble the packet.
  QuicPacket pkt;
  pkt.connection_id = cid_;
  pkt.packet_number = next_packet_number_++;
  std::size_t budget = kMaxPacketPayload -
                       packet_header_size(pkt.packet_number) - kAeadTagBytes;
  std::vector<StreamDataRef> refs;

  // Opportunistically bundle a pending ACK.
  if (ack_manager_.ack_pending()) {
    AckFrame ack = ack_manager_.build_ack(now);
    StopWaitingFrame sw{spm_.least_unacked()};
    const std::size_t need = frame_size(Frame{ack}) + frame_size(Frame{sw});
    if (need <= budget) {
      budget -= need;
      pkt.frames.emplace_back(std::move(ack));
      pkt.frames.emplace_back(sw);
    }
  }

  while (!pending_handshake_frames_.empty()) {
    const HandshakeFrame& hs = pending_handshake_frames_.front();
    const std::size_t need = frame_size(Frame{hs});
    if (need > budget) break;
    budget -= need;
    sent_handshake_log_.push_back(hs);
    StreamDataRef ref;
    ref.handshake = true;
    ref.offset = sent_handshake_log_.size() - 1;
    refs.push_back(ref);
    pkt.frames.emplace_back(hs);
    pending_handshake_frames_.erase(pending_handshake_frames_.begin());
  }

  while (!pending_window_updates_.empty()) {
    const WindowUpdateFrame& wu = pending_window_updates_.front();
    const std::size_t need = frame_size(Frame{wu});
    if (need > budget) break;
    budget -= need;
    StreamDataRef ref;
    ref.window_update = true;
    ref.stream_id = wu.stream_id;
    refs.push_back(ref);
    pkt.frames.emplace_back(wu);
    pending_window_updates_.erase(pending_window_updates_.begin());
  }

  // Stream data, round-robin across live streams (multiplexing): each once,
  // those after the cursor in send order first, then wrapping round to it.
  // When the packet fills up, the cursor stays on the last stream visited.
  auto it = live_.upper_bound(rr_cursor_);
  for (std::size_t left = live_.size(); left > 0 && budget > 24; --left) {
    if (it == live_.end()) it = live_.begin();
    const std::size_t index = *it;
    QuicStream* s = send_order_[index];
    if (!s->has_pending_data()) {
      it = stream_is_active(*s) ? std::next(it) : live_.erase(it);
      continue;
    }
    ++it;
    const std::size_t overhead =
        stream_frame_overhead(s->id(), s->bytes_sent(), budget);
    if (overhead + 1 > budget) continue;
    const std::uint64_t allowance = connection_send_allowance();
    auto chunk = s->take_chunk(budget - overhead, allowance);
    if (!chunk) continue;
    if (!chunk->is_retransmission) {
      conn_bytes_sent_ += chunk->data.size();
    }
    StreamDataRef ref;
    ref.stream_id = s->id();
    ref.offset = chunk->offset;
    ref.len = chunk->data.size();
    ref.fin = chunk->fin;
    refs.push_back(ref);
    StreamFrame sf;
    sf.stream_id = s->id();
    sf.offset = chunk->offset;
    sf.fin = chunk->fin;
    sf.data = std::move(chunk->data);
    const std::size_t used = frame_size(Frame{sf});
    budget = used <= budget ? budget - used : 0;
    pkt.frames.emplace_back(std::move(sf));
    if (budget <= 24) rr_cursor_ = index;
  }

  // The packet may have ended up pure-ACK (stream race): count it right.
  bool retransmittable = false;
  for (const Frame& f : pkt.frames) {
    if (is_retransmittable(f)) retransmittable = true;
  }
  if (pkt.frames.empty()) {
    --next_packet_number_;
    return false;
  }
  send_quic_packet(std::move(pkt), retransmittable, std::move(refs));
  return true;
}

Duration QuicConnection::ack_emission_cost() const {
  if (config_.ack_processing_per_active_stream <= kNoDuration) {
    return kNoDuration;
  }
  // Mid-receive streams are active, so all of them are live.
  const auto receiving = std::count_if(
      live_.begin(), live_.end(), [this](std::size_t i) {
        const QuicStream& s = *send_order_[i];
        return s.receive_started() && !s.receive_finished();
      });
  return config_.ack_processing_per_active_stream * receiving;
}

void QuicConnection::send_ack_now() {
  const TimePoint now = sim_.now();
  if (!ack_manager_.ack_pending()) return;
  QuicPacket pkt;
  pkt.connection_id = cid_;
  pkt.packet_number = next_packet_number_++;
  pkt.frames.emplace_back(ack_manager_.build_ack(now));
  pkt.frames.emplace_back(StopWaitingFrame{spm_.least_unacked()});
  ack_timer_.cancel();
  // Userspace bookkeeping across all mid-receive streams delays the ACK's
  // emission. The frame's ack_delay was frozen above, so the peer cannot
  // subtract this lag: its RTT samples inflate — the multiplexing artifact
  // behind the paper's Hybrid-Slow-Start early exit.
  const Duration cost = ack_emission_cost();
  if (cost > kNoDuration) {
    sim_.schedule(cost, [this, p = std::move(pkt),
                         token = std::weak_ptr<char>(live_token_)]() mutable {
      if (token.expired() || closed_) return;
      send_quic_packet(std::move(p), false, {});
    });
  } else {
    send_quic_packet(std::move(pkt), false, {});
  }
}

void QuicConnection::send_quic_packet(QuicPacket&& pkt, bool retransmittable,
                                      std::vector<StreamDataRef> data) {
  const TimePoint now = sim_.now();
  const PacketNumber pn = pkt.packet_number;
  Packet datagram;
  datagram.dst = peer_;
  datagram.dst_port = peer_port_;
  datagram.src_port = local_port_;
  datagram.proto = IpProto::kUdp;
  datagram.data = encode_packet(pkt);
  const std::size_t wire_bytes = datagram.data.size();
  ++stats_.packets_sent;
  stats_.bytes_sent += wire_bytes;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("quic:packet_sent", now)
                        .s("side", side())
                        .u("pn", pn)
                        .u("bytes", wire_bytes)
                        .b("rtxable", retransmittable));
  }
  const std::size_t in_flight_before = spm_.bytes_in_flight();
  spm_.on_packet_sent(pn, retransmittable ? wire_bytes : 0, now,
                      retransmittable, std::move(data));
  if (retransmittable) {
    cc_->on_packet_sent(now, pn, wire_bytes, in_flight_before);
  }
  host_.send(std::move(datagram));
}

void QuicConnection::maybe_note_app_limited() {
  if (!established_ || closed_) return;
  if (!cc_->can_send(spm_.bytes_in_flight())) return;  // congestion-limited
  if (cc_->earliest_departure(sim_.now()) > sim_.now()) return;  // pacing
  if (!pending_handshake_frames_.empty() || !pending_window_updates_.empty()) {
    return;
  }
  const std::uint64_t conn_allowance = connection_send_allowance();
  for (std::size_t index : live_) {
    const QuicStream* s = send_order_[index];
    if (!s->has_pending_data()) continue;
    const bool fc_blocked =
        !s->has_retransmission_data() &&
        (s->blocked_by_stream_fc() || conn_allowance == 0);
    if (!fc_blocked) {
      // Sendable data exists: the window IS being utilised; the send loop
      // will pick it up. Not application-limited.
      return;
    }
  }
  // Either idle, or all pending data is blocked on the peer's flow-control
  // credit — in both cases the congestion window is not being utilised
  // (Table 3's ApplicationLimited; the dominant state on slow mobile
  // clients whose consumption lags, Fig. 13).
  cc_->on_application_limited(sim_.now());
}

// --- Alarms ----------------------------------------------------------------

void QuicConnection::set_retransmission_alarm() {
  if (closed_ || !spm_.has_retransmittable_in_flight()) {
    retransmission_timer_.cancel();
    return;
  }
  std::optional<TimePoint> deadline;
  if (auto loss_time = spm_.earliest_loss_time(rtt_)) deadline = loss_time;

  const Duration srtt =
      rtt_.has_samples() ? rtt_.smoothed() : RttEstimator::kInitialRtt;
  TimePoint probe_deadline{};
  if (tlp_count_ < 2) {
    const Duration tlp_delay =
        std::max(2 * srtt, srtt * 3 / 2 + config_.ack.max_ack_delay);
    probe_deadline = spm_.last_retransmittable_sent_time() + tlp_delay;
  } else {
    Duration rto = rtt_.retransmission_timeout();
    for (int i = 0; i < consecutive_rto_ && rto < seconds(30); ++i) rto *= 2;
    probe_deadline = spm_.last_retransmittable_sent_time() + rto;
  }
  if (!deadline || probe_deadline < *deadline) deadline = probe_deadline;
  retransmission_timer_.set_at(*deadline);
}

void QuicConnection::on_retransmission_alarm() {
  const TimePoint now = sim_.now();
  if (closed_) return;

  // Time-threshold loss detection alarm.
  if (auto loss_time = spm_.earliest_loss_time(rtt_);
      loss_time && *loss_time <= now) {
    const std::size_t prior = spm_.bytes_in_flight();
    AckProcessResult result = spm_.detect_time_losses(now, rtt_);
    if (!result.lost.empty()) {
      stats_.packets_declared_lost += result.lost.size();
      if (trace() != nullptr) {
        for (const LostPacket& lp : result.lost) {
          trace()->record(obs::TraceEvent("quic:packet_lost", now)
                              .s("side", side())
                              .u("pn", lp.packet_number)
                              .u("bytes", lp.bytes));
        }
      }
      for (const StreamDataRef& ref : result.lost_data) {
        if (QuicStream* s = stream(ref.stream_id); s != nullptr &&
                                                   !ref.handshake &&
                                                   !ref.window_update) {
          s->requeue(ref.offset, ref.len, ref.fin);
        }
      }
      cc_->on_congestion_event(now, prior, {}, result.lost);
    }
    write_packets();
    return;
  }

  if (!spm_.has_retransmittable_in_flight()) {
    set_retransmission_alarm();
    return;
  }

  if (tlp_count_ < 2) {
    // Tail loss probe: retransmit the newest unacked data immediately.
    ++tlp_count_;
    ++stats_.tail_loss_probes;
    if (trace() != nullptr) {
      trace()->record(obs::TraceEvent("quic:tlp", now)
                          .s("side", side())
                          .i("n", tlp_count_));
    }
    cc_->on_tail_loss_probe(now);
    for (const StreamDataRef& ref : spm_.tail_loss_probe_data()) {
      if (ref.handshake) {
        if (ref.offset < sent_handshake_log_.size()) {
          pending_handshake_frames_.push_back(
              sent_handshake_log_[static_cast<std::size_t>(ref.offset)]);
        }
      } else if (!ref.window_update) {
        if (QuicStream* s = stream(ref.stream_id)) {
          s->requeue(ref.offset, ref.len, ref.fin);
        }
      }
    }
    // A probe bypasses the congestion gate: send one packet directly.
    build_and_send_packet(false);
  } else {
    // Retransmission timeout: collapse the window, resend everything.
    ++consecutive_rto_;
    ++stats_.rto_count;
    if (trace() != nullptr) {
      trace()->record(obs::TraceEvent("quic:rto", now)
                          .s("side", side())
                          .i("n", consecutive_rto_));
    }
    for (const StreamDataRef& ref : spm_.on_retransmission_timeout()) {
      if (ref.handshake) {
        if (ref.offset < sent_handshake_log_.size()) {
          pending_handshake_frames_.push_back(
              sent_handshake_log_[static_cast<std::size_t>(ref.offset)]);
        }
      } else if (ref.window_update) {
        if (ref.stream_id == 0) {
          pending_window_updates_.push_back({0, conn_advertised_max_});
        } else if (QuicStream* s = stream(ref.stream_id)) {
          pending_window_updates_.push_back(
              {ref.stream_id, s->advertised_max()});
        }
      } else if (QuicStream* s = stream(ref.stream_id)) {
        s->requeue(ref.offset, ref.len, ref.fin);
      }
    }
    cc_->on_retransmission_timeout(now);
    write_packets();
  }
  set_retransmission_alarm();
}

void QuicConnection::on_ack_alarm() {
  if (ack_manager_.ack_pending()) send_ack_now();
}

}  // namespace longlook::quic
