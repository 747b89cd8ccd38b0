#include "tcp/connection.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"

namespace longlook::tcp {
namespace {

// TLS 1.2 handshake model: byte counts of the four flights.
constexpr std::size_t kTlsClientHello = 517;
constexpr std::size_t kTlsServerFlight = 4096;  // cert chain + key exchange
constexpr std::size_t kTlsClientFinish = 325;
constexpr std::size_t kTlsServerFinish = 51;
constexpr std::size_t kTlsClientInbound = kTlsServerFlight + kTlsServerFinish;
constexpr std::size_t kTlsServerInbound = kTlsClientHello + kTlsClientFinish;

}  // namespace

CubicSenderConfig TcpConfig::make_cc_config() const {
  CubicSenderConfig cfg;
  cfg.mss = mss;
  cfg.num_connections = 1;  // the kernel does not emulate extra connections
  cfg.initial_cwnd_packets = initial_cwnd_packets;
  cfg.max_cwnd_packets = max_cwnd_packets;
  cfg.hystart = hystart;
  cfg.pacing_enabled = false;  // stock Linux TCP does not pace
  return cfg;
}

TcpConnection::TcpConnection(Simulator& sim, Host& host, TcpConfig config,
                             Address peer, Port peer_port, Port local_port,
                             bool is_client)
    : sim_(sim),
      host_(host),
      config_(config),
      peer_(peer),
      peer_port_(peer_port),
      local_port_(local_port),
      is_client_(is_client),
      rto_timer_(sim, [this] { on_rto(); }),
      probe_timer_(sim, [this] { on_probe_timer(); }),
      delack_timer_(sim, [this] { on_delayed_ack_timer(); }),
      dupthresh_(config.dupthresh) {
  cc_ = std::make_unique<CubicSender>(rtt_, config_.make_cc_config());
  effective_trace_ = config_.trace;
  if (config_.flight.enabled) {
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(
        config_.flight, config_.trace,
        std::string("tcp_") + side() + "_" + std::to_string(sample_flow_id()));
    effective_trace_ = flight_recorder_.get();
  }
  if (trace() != nullptr) cc_->set_trace(trace(), side());
  // Echo this connection's ts:conn samples through the flight recorder so
  // post-mortem dumps interleave samples with protocol events.
  if (config_.sampler != nullptr)
    config_.sampler->add_connection(this, flight_recorder_.get());
  app_recv_offset_ = config_.tls_enabled
                         ? (is_client ? kTlsClientInbound : kTlsServerInbound)
                         : 0;
}

TcpConnection::~TcpConnection() {
  if (config_.sampler != nullptr) config_.sampler->remove_connection(this);
}

void TcpConnection::sample_state(obs::ConnSample& out) const {
  out.cwnd_bytes = cc_->congestion_window();
  out.ssthresh_bytes = cc_->ssthresh();
  out.srtt_ns = rtt_.smoothed().count();
  out.rttvar_ns = rtt_.mean_deviation().count();
  out.bytes_in_flight = bytes_in_flight();
  out.pacing_bps = cc_->pacing_rate_bps();
  out.delivered_bytes = app_delivered_;
}

void TcpConnection::connect(std::function<void()> established_cb) {
  on_established_ = std::move(established_cb);
  stats_.handshake_round_trips = config_.tls_enabled ? 3 : 1;
  send_syn();
}

void TcpConnection::send_syn() {
  state_ = State::kSynSent;
  TcpSegment syn = make_base_segment();
  syn.syn = true;
  syn.ack_flag = false;
  transmit(std::move(syn));
  rto_timer_.set(rtt_.retransmission_timeout());
}

void TcpConnection::send_syn_ack() {
  state_ = State::kSynRcvd;
  TcpSegment seg = make_base_segment();
  seg.syn = true;
  seg.ack_flag = true;
  seg.ack = rcv_nxt_;
  transmit(std::move(seg));
  rto_timer_.set(rtt_.retransmission_timeout());
}

void TcpConnection::enter_established(TimePoint now) {
  state_ = State::kEstablished;
  rto_timer_.cancel();
  cc_->on_connection_established(now, peer_rwnd_);
  if (config_.tls_enabled) {
    if (is_client_) {
      // TLS flight 1: ClientHello.
      send_buffer_.append(util::zero_bytes(kTlsClientHello));
      try_send();
    }
  } else {
    maybe_fire_app_established();
  }
}

void TcpConnection::maybe_fire_app_established() {
  if (app_established_) return;
  if (config_.tls_enabled && !tls_done_) return;
  app_established_ = true;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:established", sim_.now())
                        .s("side", side())
                        .u("rtts", stats_.handshake_round_trips));
  }
  if (on_established_) on_established_();
  try_send();
}

void TcpConnection::tls_step_on_receive() {
  if (!config_.tls_enabled || tls_done_) return;
  if (is_client_) {
    if (tls_phase_ == 0 && tls_recv_count_ >= kTlsServerFlight) {
      tls_phase_ = 1;
      send_buffer_.append(util::zero_bytes(kTlsClientFinish));
      try_send();
    }
    if (tls_recv_count_ >= kTlsClientInbound) {
      tls_done_ = true;
      maybe_fire_app_established();
    }
  } else {
    if (tls_phase_ == 0 && tls_recv_count_ >= kTlsClientHello) {
      tls_phase_ = 1;
      send_buffer_.append(util::zero_bytes(kTlsServerFlight));
      try_send();
    }
    if (tls_recv_count_ >= kTlsServerInbound) {
      tls_done_ = true;
      send_buffer_.append(util::zero_bytes(kTlsServerFinish));
      maybe_fire_app_established();
    }
  }
}

// --- Application API --------------------------------------------------------

void TcpConnection::write(BytesView data, bool fin) {
  send_buffer_.append(data);
  if (fin && !fin_queued_) {
    // The FIN occupies one virtual byte at the end of the stream so that
    // cumulative ACK / SACK machinery covers it with no special cases.
    send_buffer_.append(util::zero_bytes(1));
    fin_offset_ = send_end() - 1;
    fin_queued_ = true;
  }
}

// --- Segment construction ---------------------------------------------------

TcpSegment TcpConnection::make_base_segment() const {
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = peer_port_;
  seg.seq = snd_nxt_;
  seg.ack_flag = true;
  seg.ack = rcv_nxt_;
  seg.window = advertised_window();
  // ll-analysis: allow(narrowing-time-arith) the simulation epoch is zero, so now().time_since_epoch() is never negative
  seg.ts_val =
      static_cast<std::uint64_t>(sim_.now().time_since_epoch().count());
  return seg;
}

void TcpConnection::transmit(TcpSegment&& seg) {
  seg.ts_ecr = last_rx_tsval_;
  Packet p;
  p.dst = peer_;
  p.dst_port = peer_port_;
  p.src_port = local_port_;
  p.proto = IpProto::kTcp;
  p.data = encode_segment(seg);
  ++stats_.segments_sent;
  stats_.bytes_sent += p.data.size();
  host_.send(std::move(p));
}

std::uint64_t TcpConnection::advertised_window() const {
  LL_DCHECK(reassembly_bytes_consistent())
      << "reassembly byte count " << reassembly_bytes_
      << " diverged from the buffered chunks";
  return reassembly_bytes_ >= config_.recv_buffer
             ? 0
             : config_.recv_buffer - reassembly_bytes_;
}

bool TcpConnection::reassembly_bytes_consistent() const {
  std::size_t buffered = 0;
  for (const auto& [off, chunk] : reassembly_) buffered += chunk.size();
  return buffered == reassembly_bytes_;
}

// --- Send path ---------------------------------------------------------------

std::size_t TcpConnection::sacked_bytes_in_flight() const {
  std::size_t total = 0;
  for (const SackBlock& b : sacked_) {
    const std::uint64_t lo = std::max(b.start, snd_una_);
    const std::uint64_t hi = std::min(b.end, snd_nxt_);
    if (hi > lo) total += static_cast<std::size_t>(hi - lo);
  }
  return total;
}

std::size_t TcpConnection::bytes_in_flight() const {
  // RFC 6675-style pipe: outstanding minus SACKed minus declared-lost bytes
  // that we have not yet retransmitted (holes ahead of the retransmit
  // cursor). Without the lost term, recovery deadlocks: the hole "occupies"
  // cwnd forever and PRR never releases a retransmission.
  const std::uint64_t outstanding = snd_nxt_ - snd_una_;
  const std::size_t sacked = sacked_bytes_in_flight();
  std::size_t pipe = outstanding > sacked
                         ? static_cast<std::size_t>(outstanding) - sacked
                         : 0;
  const std::size_t lost = lost_not_retransmitted_bytes();
  return pipe > lost ? pipe - lost : 0;
}

std::size_t TcpConnection::lost_not_retransmitted_bytes() const {
  if (!in_recovery_) return 0;
  const std::uint64_t limit =
      rto_recovery_ ? std::min(recovery_point_, snd_nxt_)
                    : std::min({highest_sacked_, recovery_point_, snd_nxt_});
  const std::uint64_t start = std::max(snd_una_, retx_next_);
  if (start >= limit) return 0;
  std::uint64_t unsacked = limit - start;
  for (const SackBlock& b : sacked_) {
    const std::uint64_t lo = std::max(b.start, start);
    const std::uint64_t hi = std::min(b.end, limit);
    if (hi > lo) unsacked -= hi - lo;
  }
  return static_cast<std::size_t>(unsacked);
}

bool TcpConnection::offset_sacked(std::uint64_t offset) const {
  for (const SackBlock& b : sacked_) {
    if (offset >= b.start && offset < b.end) return true;
  }
  return false;
}

std::optional<std::uint64_t> TcpConnection::next_hole_to_retransmit() const {
  if (!in_recovery_) return std::nullopt;
  std::uint64_t off = std::max(retx_next_, snd_una_);
  // Fast recovery may only retransmit holes *below* the highest SACKed byte
  // (data above it is still legitimately in flight); after an RTO everything
  // outstanding is presumed lost and the whole window is fair game.
  const std::uint64_t limit =
      rto_recovery_ ? std::min(recovery_point_, snd_nxt_)
                    : std::min({highest_sacked_, recovery_point_, snd_nxt_});
  while (off < limit) {
    if (!offset_sacked(off)) return off;
    // Skip to the end of the covering SACK block.
    for (const SackBlock& b : sacked_) {
      if (off >= b.start && off < b.end) {
        off = b.end;
        break;
      }
    }
  }
  return std::nullopt;
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished) return;
  const TimePoint now = sim_.now();
  while (send_one_segment(now)) {
  }
  if (snd_una_ < snd_nxt_) {
    arm_rto();
    arm_probe_timer();
  } else {
    rto_timer_.cancel();
    probe_timer_.cancel();
    if (cc_->can_send(0) && snd_nxt_ >= send_end()) {
      cc_->on_application_limited(now);
    }
  }
}

bool TcpConnection::send_one_segment(TimePoint now) {
  if (!cc_->can_send(bytes_in_flight())) return false;

  // Retransmissions of SACK holes take priority. They are never blocked by
  // the peer's receive window: the lowest hole sits at the window's left
  // edge (the receiver's rcv_nxt IS snd_una), so gating it on rwnd would
  // deadlock a window-limited recovery.
  if (auto hole = next_hole_to_retransmit()) {
    std::uint64_t end = *hole + config_.mss;
    end = std::min({end, std::min(recovery_point_, snd_nxt_)});
    // Don't run into a SACKed region.
    for (const SackBlock& b : sacked_) {
      if (b.start > *hole && b.start < end) end = b.start;
    }
    retx_next_ = end;
    send_segment_at(*hole, static_cast<std::size_t>(end - *hole), true, now);
    return true;
  }

  // New data, gated by the peer's receive window.
  if (snd_nxt_ < send_end()) {
    if (snd_nxt_ - snd_una_ >= peer_rwnd_) return false;
    const std::size_t len = std::min<std::uint64_t>(
        {config_.mss, send_end() - snd_nxt_,
         peer_rwnd_ - (snd_nxt_ - snd_una_)});
    send_segment_at(snd_nxt_, len, false, now);
    snd_nxt_ += len;
    return true;
  }
  return false;
}

void TcpConnection::send_segment_at(std::uint64_t offset, std::size_t len,
                                    bool is_retx, TimePoint now) {
  TcpSegment seg = make_base_segment();
  seg.seq = offset;
  seg.payload = send_buffer_.copy_out(offset, len);
  if (fin_queued_ && offset + len - 1 == fin_offset_) seg.fin = true;
  // Piggyback SACK state for the peer.
  seg.sack = build_sack_blocks();

  SegMeta meta;
  meta.pn = next_pn_++;
  meta.len = len;
  meta.sent_time = now;
  meta.retransmitted = is_retx;
  in_flight_[offset] = meta;

  const std::size_t in_flight_before = bytes_in_flight();
  cc_->on_packet_sent(now, meta.pn, len, in_flight_before);
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:segment_sent", now)
                        .s("side", side())
                        .u("off", offset)
                        .u("len", len)
                        .b("rtx", is_retx));
  }
  if (is_retx) ++stats_.retransmitted_segments;
  segs_since_ack_ = 0;  // data segments carry an up-to-date ACK
  delack_timer_.cancel();
  transmit(std::move(seg));
}

// --- ACK / SACK processing ---------------------------------------------------

void TcpConnection::update_reordering(std::uint64_t newly_acked_start,
                                      bool any_retransmitted) {
  if (!config_.dsack_enabled) return;
  // Data below an already-SACKed range was just cumulatively acked *without
  // having been retransmitted*: the network reordered, it didn't drop
  // (Karn's rule keeps retransmission-filled holes out — those are genuine
  // losses, not reordering). Track the reorder extent like Linux
  // tp->reordering and deepen dupthresh accordingly.
  if (any_retransmitted) return;
  if (highest_sacked_ > newly_acked_start) {
    const std::size_t extent_packets = static_cast<std::size_t>(
        (highest_sacked_ - newly_acked_start) / config_.mss);
    dupthresh_ = std::clamp(extent_packets, dupthresh_, config_.max_dupthresh);
  }
}

void TcpConnection::check_sack_scoreboard() const {
  // O(n) scoreboard self-check (armed in sanitizer builds): blocks are
  // sorted, disjoint, non-empty, above the cumulative ACK point, and below
  // the reorder-tracking high-water mark.
  std::uint64_t prev_end = 0;
  for (const SackBlock& b : sacked_) {
    LL_DCHECK(b.end > b.start)
        << "empty SACK block [" << b.start << "," << b.end << ")";
    LL_DCHECK(b.end > snd_una_)
        << "SACK block [" << b.start << "," << b.end << ") below snd_una="
        << snd_una_;
    LL_DCHECK(b.start > prev_end || prev_end == 0)
        << "SACK blocks overlap or touch: prev_end=" << prev_end
        << " next=[" << b.start << "," << b.end << ")";
    LL_DCHECK(highest_sacked_ >= b.end)
        << "highest_sacked=" << highest_sacked_ << " below block end "
        << b.end;
    prev_end = b.end;
  }
}

void TcpConnection::merge_sack(const std::vector<SackBlock>& blocks,
                               bool dsack) {
  std::size_t i = 0;
  if (dsack && !blocks.empty()) {
    // A DSACK block reports a duplicate arrival: our retransmission was
    // spurious. Deepen the duplicate-ACK threshold gradually (RR-TCP
    // behaviour) — but not right after an RTO, whose go-back-N resends
    // produce duplicates that say nothing about reordering.
    ++stats_.dsack_events;
    const Duration rto_guard = 4 * (rtt_.has_samples()
                                        ? rtt_.smoothed()
                                        : RttEstimator::kInitialRtt);
    if (config_.dsack_enabled && sim_.now() - last_rto_at_ > rto_guard) {
      dupthresh_ = std::min(config_.max_dupthresh, dupthresh_ + 2);
    }
    if (trace() != nullptr) {
      trace()->record(obs::TraceEvent("tcp:dsack", sim_.now())
                          .s("side", side())
                          .u("thresh", dupthresh_));
    }
    i = 1;  // the DSACK block is a report, not receive-state
  }
  for (; i < blocks.size(); ++i) {
    const SackBlock& nb = blocks[i];
    if (nb.end <= nb.start) continue;
    // A SACK can only cover data we actually sent: a block past snd_nxt
    // means scoreboard corruption (or a misbehaving peer) and would poison
    // bytes_in_flight / hole selection silently.
    LL_INVARIANT(nb.end <= snd_nxt_)
        << "SACK block [" << nb.start << "," << nb.end
        << ") beyond snd_nxt=" << snd_nxt_ << " (SACKed data never sent)";
    highest_sacked_ = std::max(highest_sacked_, nb.end);
    bool merged = false;
    for (SackBlock& b : sacked_) {
      if (nb.start <= b.end && nb.end >= b.start) {
        b.start = std::min(b.start, nb.start);
        b.end = std::max(b.end, nb.end);
        merged = true;
        break;
      }
    }
    if (!merged) sacked_.push_back(nb);
  }
  // Normalise: sort + merge overlaps + drop below una.
  std::sort(sacked_.begin(), sacked_.end(),
            [](const SackBlock& a, const SackBlock& b) {
              return a.start < b.start;
            });
  std::vector<SackBlock> merged;
  for (const SackBlock& b : sacked_) {
    if (b.end <= snd_una_) continue;
    if (!merged.empty() && b.start <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, b.end);
    } else {
      merged.push_back(b);
    }
  }
  sacked_ = std::move(merged);
  check_sack_scoreboard();
}

void TcpConnection::enter_recovery(TimePoint now, std::uint64_t hole_offset) {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  retx_next_ = snd_una_;
  ++stats_.fast_retransmits;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:fast_retransmit", now)
                        .s("side", side())
                        .u("off", hole_offset));
  }
  // Tell the CC which packet was lost (for recovery-epoch bookkeeping).
  PacketNumber pn = 0;
  if (auto it = in_flight_.find(hole_offset); it != in_flight_.end()) {
    pn = it->second.pn;
  }
  std::vector<LostPacket> lost{{pn, config_.mss}};
  cc_->on_congestion_event(now, bytes_in_flight(), {}, lost);
}

void TcpConnection::process_ack(const TcpSegment& seg, TimePoint now) {
  peer_rwnd_ = std::max<std::uint64_t>(seg.window, config_.mss);

  // Cumulative ACKs cover sent data only; an ACK past snd_nxt means the
  // peer acknowledged bytes that never existed — sequence-space corruption
  // the scoreboard math below would silently absorb.
  LL_INVARIANT(seg.ack <= snd_nxt_)
      << "ACK " << seg.ack << " beyond snd_nxt=" << snd_nxt_
      << " (acked data never sent)";

  const std::uint64_t prior_una = snd_una_;
  if (seg.ack > snd_una_) {
    const std::size_t newly = static_cast<std::size_t>(seg.ack - snd_una_);
    const std::size_t prior_in_flight = bytes_in_flight();
    snd_una_ = seg.ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;  // post-RTO late ACK
    if (retx_next_ < snd_una_) retx_next_ = snd_una_;
    // Every (re)transmission starts at or above snd_una_, so the blocks
    // below it are never read again.
    send_buffer_.release_before(snd_una_);
    dupack_count_ = 0;
    consecutive_rto_ = 0;
    probe_count_ = 0;

    // Retire fully-acked segment metadata; remember the newest pn acked and
    // whether any retired segment had been retransmitted (Karn filter for
    // the reordering detector).
    PacketNumber acked_pn = 0;
    TimePoint sent_time{};
    bool any_retransmitted = false;
    while (!in_flight_.empty()) {
      auto it = in_flight_.begin();
      if (it->first + it->second.len <= snd_una_) {
        if (it->second.pn > acked_pn) {
          acked_pn = it->second.pn;
          sent_time = it->second.sent_time;
        }
        any_retransmitted |= it->second.retransmitted;
        in_flight_.erase(it);
      } else {
        break;
      }
    }
    // RTT sample from the timestamp echo (safe under retransmission).
    if (seg.ts_ecr != 0) {
      const TimePoint sent(Duration(static_cast<std::int64_t>(seg.ts_ecr)));
      if (now > sent) rtt_.update(now - sent);
    }
    update_reordering(prior_una, any_retransmitted);

    std::vector<AckedPacket> acked{{acked_pn, newly, sent_time}};
    cc_->on_congestion_event(now, prior_in_flight, acked, {});

    if (in_recovery_ && snd_una_ >= recovery_point_) {
      in_recovery_ = false;
      rto_recovery_ = false;
    }
  } else if (seg.ack == snd_una_ && seg.payload.empty() &&
             snd_una_ < snd_nxt_) {
    ++dupack_count_;
  }

  merge_sack(seg.sack, seg.dsack);

  // Lost-retransmission detection: if the head hole was retransmitted more
  // than ~an RTT ago and is still unacknowledged, the retransmission itself
  // was lost — rewind the cursor so it goes out again instead of stalling
  // the whole recovery until RTO.
  if (in_recovery_ && retx_next_ > snd_una_ && snd_una_ < snd_nxt_) {
    auto it = in_flight_.find(snd_una_);
    if (it != in_flight_.end() && it->second.retransmitted &&
        rtt_.has_samples() &&
        now - it->second.sent_time > rtt_.smoothed() * 5 / 4) {
      retx_next_ = snd_una_;
    }
  }

  // Fast-retransmit trigger: enough dupACKs, or enough SACKed bytes above
  // the hole (FACK-style), using the (possibly adapted) threshold.
  if (!in_recovery_ && snd_una_ < snd_nxt_) {
    const bool dup_trigger = dupack_count_ >= dupthresh_;
    const bool sack_trigger =
        config_.sack_enabled &&
        sacked_bytes_in_flight() >= dupthresh_ * config_.mss;
    if (dup_trigger || sack_trigger) enter_recovery(now, snd_una_);
  }
}

// --- Receive path -------------------------------------------------------------

void TcpConnection::on_segment(const TcpSegment& seg, TimePoint now) {
  ++stats_.segments_received;
  last_rx_tsval_ = seg.ts_val;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:segment_received", now)
                        .s("side", side())
                        .u("seq", seg.seq)
                        .u("len", seg.payload.size())
                        .u("ack", seg.ack));
  }

  // Connection management.
  if (seg.syn && !seg.ack_flag) {
    // Passive open (server): SYN received.
    if (state_ == State::kClosed || state_ == State::kSynRcvd) {
      send_syn_ack();
    }
    return;
  }
  if (seg.syn && seg.ack_flag) {
    // Client: SYN-ACK.
    if (state_ == State::kSynSent) {
      if (seg.ts_ecr != 0) {
        const TimePoint sent(Duration(static_cast<std::int64_t>(seg.ts_ecr)));
        if (now > sent) rtt_.update(now - sent);
      }
      peer_rwnd_ = std::max<std::uint64_t>(seg.window, config_.mss);
      enter_established(now);
      send_pure_ack();
    }
    return;
  }
  if (state_ == State::kSynRcvd && seg.ack_flag) {
    peer_rwnd_ = std::max<std::uint64_t>(seg.window, config_.mss);
    enter_established(now);
    // Fall through: the ACK may carry data (TLS ClientHello rides early).
  }
  if (state_ != State::kEstablished) return;

  process_ack(seg, now);
  if (!seg.payload.empty() || seg.fin) process_payload(seg, now);
  try_send();
}

void TcpConnection::process_payload(const TcpSegment& seg, TimePoint now) {
  (void)now;
  std::optional<SackBlock> dsack_report;
  const std::uint64_t seg_end = seg.seq + seg.payload.size();

  if (seg.fin && !seg.payload.empty()) {
    peer_fin_offset_ = seg_end - 1;  // virtual FIN byte is the last one
  }

  bool out_of_order = seg.seq > rcv_nxt_;
  if (seg_end <= rcv_nxt_) {
    // Entire segment is a duplicate: report via DSACK.
    if (config_.dsack_enabled && !seg.payload.empty()) {
      dsack_report = SackBlock{seg.seq, seg_end};
    }
  } else {
    BytesView data = seg.payload;
    std::uint64_t start = seg.seq;
    if (start < rcv_nxt_) {
      data = data.subspan(static_cast<std::size_t>(rcv_nxt_ - start));
      start = rcv_nxt_;
    }
    if (start == rcv_nxt_ && reassembly_.empty()) {
      // In order with nothing buffered: deliver straight from the segment.
      deliver_fresh(data);
    } else {
      auto it = reassembly_.find(start);
      if (it == reassembly_.end() || it->second.size() < data.size()) {
        it = reassembly_.try_emplace(it, start);
        reassembly_bytes_ += data.size() - it->second.size();
        it->second.assign(data.begin(), data.end());
        // A new or longer chunk can change whether it and its successor
        // begin SACK runs; no other chunk's predecessor changed.
        refresh_run_start(it);
        refresh_run_start(std::next(it));
      } else if (config_.dsack_enabled) {
        dsack_report = SackBlock{seg.seq, seg_end};
      }
      deliver_in_order();
    }
  }
  maybe_send_ack(out_of_order || !reassembly_.empty(), dsack_report);
}

void TcpConnection::deliver_in_order() {
  while (true) {
    auto it = reassembly_.begin();
    if (it == reassembly_.end() || it->first > rcv_nxt_) break;
    Bytes chunk = std::move(it->second);
    const std::uint64_t start = it->first;
    run_starts_.erase(start);
    it = reassembly_.erase(it);
    // The new front begins a run. Keep the index exact before delivering:
    // the callbacks below may send a segment, which reads it.
    refresh_run_start(it);
    reassembly_bytes_ -= chunk.size();
    if (start + chunk.size() <= rcv_nxt_) continue;
    const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - start);
    deliver_fresh(BytesView(chunk).subspan(skip));
  }
}

void TcpConnection::deliver_fresh(BytesView fresh) {
  const std::uint64_t fresh_start = rcv_nxt_;
  rcv_nxt_ += fresh.size();

  // Split into TLS-script bytes and application bytes.
  std::uint64_t pos = fresh_start;
  std::size_t idx = 0;
  if (pos < app_recv_offset_) {
    const std::size_t tls_n = static_cast<std::size_t>(
        std::min<std::uint64_t>(fresh.size(), app_recv_offset_ - pos));
    tls_recv_count_ += tls_n;
    pos += tls_n;
    idx += tls_n;
    tls_step_on_receive();
  }
  if (idx < fresh.size()) {
    BytesView app = fresh.subspan(idx);
    // Exclude the virtual FIN byte from app delivery.
    bool fin_now = false;
    if (peer_fin_offset_ && pos + app.size() > *peer_fin_offset_) {
      app = app.first(static_cast<std::size_t>(*peer_fin_offset_ - pos));
      fin_now = rcv_nxt_ > *peer_fin_offset_;
    }
    app_delivered_ += app.size();
    if (on_data_ && (!app.empty() || fin_now) && !fin_delivered_) {
      if (fin_now) fin_delivered_ = true;
      on_data_(app, fin_now);
    }
  } else if (peer_fin_offset_ && rcv_nxt_ > *peer_fin_offset_ &&
             !fin_delivered_) {
    fin_delivered_ = true;
    if (on_data_) on_data_({}, true);
  }
}

void TcpConnection::refresh_run_start(
    std::map<std::uint64_t, Bytes>::const_iterator it) {
  if (it == reassembly_.end()) return;
  bool begins = true;
  if (it != reassembly_.begin()) {
    const auto prev = std::prev(it);
    begins = prev->first + prev->second.size() != it->first;
  }
  if (begins) {
    run_starts_.insert(it->first);
  } else {
    run_starts_.erase(it->first);
  }
}

std::vector<SackBlock> TcpConnection::build_sack_blocks() const {
  if (!config_.sack_enabled) return {};
  // The most recent (highest) three runs, lowest first. A run ends where
  // the chunk before the next run's first chunk ends.
  std::vector<SackBlock> blocks;
  auto next_run = reassembly_.end();
  for (auto r = run_starts_.rbegin();
       r != run_starts_.rend() && blocks.size() < 3; ++r) {
    const auto last = std::prev(next_run);
    blocks.push_back({*r, last->first + last->second.size()});
    next_run = reassembly_.find(*r);
  }
  std::reverse(blocks.begin(), blocks.end());
  LL_DCHECK(blocks == sack_blocks_by_walk())
      << "SACK run index diverged from the reassembly chunks";
  return blocks;
}

std::vector<SackBlock> TcpConnection::sack_blocks_by_walk() const {
  std::vector<SackBlock> blocks;
  SackBlock current{0, 0};
  for (const auto& [off, chunk] : reassembly_) {
    if (current.end == off) {
      current.end = off + chunk.size();
    } else {
      if (current.end > current.start) blocks.push_back(current);
      current = {off, off + chunk.size()};
    }
  }
  if (current.end > current.start) blocks.push_back(current);
  if (blocks.size() > 3) {
    blocks.erase(blocks.begin(), blocks.end() - 3);  // most recent 3
  }
  return blocks;
}

void TcpConnection::maybe_send_ack(bool out_of_order,
                                   std::optional<SackBlock> dsack) {
  ++segs_since_ack_;
  if (out_of_order || dsack.has_value() ||
      segs_since_ack_ >= config_.ack_every_n ||
      (peer_fin_offset_ && rcv_nxt_ > *peer_fin_offset_)) {
    send_pure_ack(dsack.has_value(), dsack);
  } else if (!delack_timer_.armed()) {
    delack_timer_.set(config_.delayed_ack_timeout);
  }
}

void TcpConnection::send_pure_ack(bool immediate_dsack,
                                  std::optional<SackBlock> dsack_block) {
  TcpSegment seg = make_base_segment();
  seg.sack = build_sack_blocks();
  if (immediate_dsack && dsack_block) {
    seg.sack.insert(seg.sack.begin(), *dsack_block);
    seg.dsack = true;
  }
  segs_since_ack_ = 0;
  delack_timer_.cancel();
  transmit(std::move(seg));
}

// --- Timers --------------------------------------------------------------------

void TcpConnection::arm_rto() {
  Duration rto = rtt_.retransmission_timeout();
  for (int i = 0; i < consecutive_rto_ && rto < seconds(30); ++i) rto *= 2;
  rto_timer_.set(rto);
}

void TcpConnection::arm_probe_timer() {
  if (probe_count_ >= 2) return;  // after two probes, let the RTO decide
  const Duration srtt =
      rtt_.has_samples() ? rtt_.smoothed() : RttEstimator::kInitialRtt;
  probe_timer_.set(std::max(2 * srtt, milliseconds(20)));
}

void TcpConnection::on_probe_timer() {
  // Tail loss probe: the ACK clock died (tail or retransmission loss).
  // Resend the head hole once, bypassing cwnd — cheaper than waiting for
  // the full RTO and collapsing the window.
  if (state_ != State::kEstablished || snd_una_ >= snd_nxt_) return;
  ++probe_count_;
  ++stats_.tail_loss_probes;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:tlp", sim_.now())
                        .s("side", side())
                        .i("n", probe_count_));
  }
  std::uint64_t end = snd_una_ + config_.mss;
  end = std::min(end, snd_nxt_);
  for (const SackBlock& b : sacked_) {
    if (b.start > snd_una_ && b.start < end) end = b.start;
  }
  retx_next_ = std::max(retx_next_, end);
  send_segment_at(snd_una_, static_cast<std::size_t>(end - snd_una_), true,
                  sim_.now());
  arm_probe_timer();
}

void TcpConnection::on_rto() {
  const TimePoint now = sim_.now();
  if (state_ == State::kSynSent) {
    if (++syn_retries_ < 6) send_syn();
    return;
  }
  if (state_ == State::kSynRcvd) {
    send_syn_ack();
    return;
  }
  if (snd_una_ >= snd_nxt_) return;  // nothing outstanding

  ++stats_.rto_count;
  ++consecutive_rto_;
  last_rto_at_ = now;
  if (trace() != nullptr) {
    trace()->record(obs::TraceEvent("tcp:rto", now)
                        .s("side", side())
                        .i("n", consecutive_rto_));
  }
  cc_->on_retransmission_timeout(now);
  // SACK-preserving RTO (RFC 6675 style): everything unSACKed below snd_nxt
  // is presumed lost and retransmitted hole-by-hole; SACKed data is never
  // resent, so a spurious RTO does not trigger a duplicate storm.
  in_recovery_ = true;
  rto_recovery_ = true;
  recovery_point_ = snd_nxt_;
  retx_next_ = snd_una_;
  dupack_count_ = 0;
  try_send();
  arm_rto();
}

void TcpConnection::on_delayed_ack_timer() {
  if (segs_since_ack_ > 0) send_pure_ack();
}

}  // namespace longlook::tcp
