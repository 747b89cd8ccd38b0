#include "traced.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "http/h2_session.h"
#include "http/object_service.h"
#include "http/page_loader.h"
#include "http/quic_session.h"
#include "net/host.h"
#include "quic/endpoint.h"
#include "tcp/endpoint.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/executor.h"

namespace perfbench {

using namespace longlook;

namespace {

// Codec sample: every kCaptureStride-th packet seen per stack, up to
// kCaptureCap packets.
constexpr std::uint64_t kCaptureStride = 8;
constexpr std::size_t kCaptureCap = 8192;

// The QUIC client endpoint binds the first UDP port a fresh host hands out
// (Host::allocate_ephemeral_port) and has no getter for it. A tap bound
// elsewhere sees no packets, which the run reports as a failure.
constexpr Port kFirstUdpEphemeralPort = 49152;

struct Tracer {
  SpanLog log;
  TracedIteration* it = nullptr;
  std::uint32_t next_run = 0;
  bool capture = false;
  std::uint64_t seen[2] = {0, 0};

  void maybe_capture(const Packet& p) {
    if (!capture) return;
    const int k = p.proto == IpProto::kUdp ? 0 : 1;
    std::vector<Bytes>& dst = k == 0 ? it->quic_wire : it->tcp_wire;
    if (seen[k]++ % kCaptureStride == 0 && dst.size() < kCaptureCap) {
      dst.push_back(p.data);
    }
  }

  // Folds the finished run's spans into the iteration and drops them.
  void end_run() {
    const std::vector<Span>& spans = log.spans();
    const std::vector<std::int64_t> self = self_times(spans);
    const SpanTotals run = fold_spans(spans, self);
    it->totals.merge(run);
    // The run's first span is its setup, its last one its teardown.
    it->wall_ns += spans.back().end_ns - spans.front().start_ns;
    it->span_summary += "{\"run\":" + std::to_string(spans.front().run) +
                        ",\"spans\":{";
    for (std::size_t n = 0; n < kSpanNameCount; ++n) {
      if (run.count[n] == 0) continue;
      if (it->span_summary.back() != '{') it->span_summary += ",";
      it->span_summary += "\"" + std::string(kSpanNames[n]) + "\":[" +
                          std::to_string(run.count[n]) + "," +
                          std::to_string(run.total_ns[n]) + "," +
                          std::to_string(run.self_ns[n]) + "]";
    }
    it->span_summary += "}}\n";
    std::vector<std::int64_t> rx;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == kQuicRx) rx.push_back(self[i]);
    }
    const std::size_t tenth = rx.size() / 10;
    for (std::size_t i = 0; i < tenth; ++i) {
      it->rx_first_ns += rx[i];
      it->rx_last_ns += rx[rx.size() - 1 - i];
    }
    log.clear();
  }
};

Duration perturb(Duration base, Rng& rng) {
  const double factor = rng.uniform(0.96, 1.04);
  return Duration(static_cast<std::int64_t>(
      static_cast<double>(base.count()) * factor));
}

std::int64_t perturb_rate(std::int64_t rate_bps, Rng& rng) {
  if (rate_bps <= 0) return rate_bps;
  return static_cast<std::int64_t>(static_cast<double>(rate_bps) *
                                   rng.uniform(0.98, 1.02));
}

// harness::Testbed's wired topology (client - router - mid - server, see
// src/harness/testbed.cc) rebuilt from Network/Host/DuplexLink, so that
// every link delivery into Host::deliver runs inside a span. The noise
// draws follow Testbed's order; the digest comparison with the untraced
// run catches any drift between the two.
class TracedTestbed {
 public:
  TracedTestbed(const harness::Scenario& s, SpanLog& log) {
    LL_CHECK(!s.cellular) << "the traced topology models wired paths only";
    Rng noise(s.seed * 104729 + 17);
    client = &net.add_host("client");
    Host& router = net.add_host("router");
    Host& mid = net.add_host("mid");
    server = &net.add_host("server");
    client->set_device_profile(s.device);

    constexpr Duration kClientRouterOneWay = milliseconds(8);
    constexpr Duration kRouterMidOneWay = milliseconds(1);
    constexpr Duration kMidServerOneWay = milliseconds(9);
    LinkConfig up;
    LinkConfig down;
    up.rate_bps = perturb_rate(s.rate_bps, noise);
    down.rate_bps = perturb_rate(s.rate_bps, noise);
    up.bucket_bytes = down.bucket_bytes = s.bucket_bytes;
    up.queue_limit_bytes = down.queue_limit_bytes = s.buffer_bytes;
    up.base_delay = perturb(kClientRouterOneWay + s.extra_rtt / 4, noise);
    down.base_delay = perturb(kClientRouterOneWay + s.extra_rtt / 4, noise);
    up.jitter = down.jitter = s.jitter;
    up.loss_rate = down.loss_rate = s.loss_rate;
    up.reorder_prob = down.reorder_prob = s.reorder_prob;
    up.seed = s.seed * 2 + 1;
    down.seed = s.seed * 2 + 2;
    access = &net.connect(*client, router, up, down);

    LinkConfig rm;
    rm.base_delay = kRouterMidOneWay;
    rm.seed = s.seed * 2 + 3;
    DuplexLink& router_mid = net.connect(router, mid, rm, rm);

    LinkConfig ms;
    ms.base_delay = perturb(kMidServerOneWay + s.extra_rtt / 4, noise);
    ms.seed = s.seed * 2 + 4;
    DuplexLink& mid_server = net.connect(mid, *server, ms, ms);

    client->set_default_route(&access->a_to_b());
    router.add_route(server->address(), &router_mid.a_to_b());
    mid.add_route(client->address(), &router_mid.b_to_a());
    server->set_default_route(&mid_server.b_to_a());

    wrap(*access, *client, router, log);
    wrap(router_mid, router, mid, log);
    wrap(mid_server, mid, *server, log);
  }

  Simulator sim;
  Network net{sim};
  Host* client = nullptr;
  Host* server = nullptr;
  DuplexLink* access = nullptr;

 private:
  static void wrap(DuplexLink& link, Host& a, Host& b, SpanLog& log) {
    link.set_sink_at_b([&b, &log](Packet&& p) {
      ScopedSpan span(log, kNetDeliver);
      b.deliver(std::move(p));
    });
    link.set_sink_at_a([&a, &log](Packet&& p) {
      ScopedSpan span(log, kNetDeliver);
      a.deliver(std::move(p));
    });
  }
};

// Bound with Host::bind in front of a transport endpoint: every packet the
// host dispatches to the endpoint passes through a receive span.
class RxTap final : public PacketSink {
 public:
  RxTap(Tracer& tracer, SpanName name, Host& host, IpProto proto, Port port,
        PacketSink& endpoint)
      : tracer_(tracer), name_(name), endpoint_(endpoint) {
    host.bind(proto, port, this);
  }
  RxTap(const RxTap&) = delete;
  RxTap& operator=(const RxTap&) = delete;

  void on_packet(Packet&& p) override {
    tracer_.maybe_capture(p);
    ++packets_;
    ScopedSpan span(tracer_.log, name_);
    endpoint_.on_packet(std::move(p));
  }
  std::uint64_t packets() const { return packets_; }

 private:
  Tracer& tracer_;
  SpanName name_;
  PacketSink& endpoint_;
  std::uint64_t packets_ = 0;
};

// Spans each write and each on_data callback of one client stream.
class TracedStream final : public http::AppStream {
 public:
  TracedStream(SpanLog& log, SpanName write_span, http::AppStream& inner,
               std::unique_ptr<http::AppStream> owned = nullptr)
      : log_(log), write_span_(write_span), inner_(inner),
        owned_(std::move(owned)) {}

  void write(BytesView data, bool fin) override {
    ScopedSpan span(log_, write_span_);
    inner_.write(data, fin);
  }
  void set_on_data(std::function<void(BytesView, bool fin)> fn) override {
    inner_.set_on_data(
        [log = &log_, fn = std::move(fn)](BytesView d, bool fin) {
          ScopedSpan span(*log, kHttpOnData);
          fn(d, fin);
        });
  }
  std::uint64_t id() const override { return inner_.id(); }
  std::size_t write_backlog() const override { return inner_.write_backlog(); }

 private:
  SpanLog& log_;
  SpanName write_span_;
  http::AppStream& inner_;
  std::unique_ptr<http::AppStream> owned_;
};

std::function<void()> traced_callback(SpanLog& log, std::function<void()> fn) {
  return [&log, fn = std::move(fn)] {
    ScopedSpan span(log, kHttpOnData);
    fn();
  };
}

// http::QuicClientSession with traced streams and its endpoint reachable,
// so a receive tap can stand in front of it.
class TracedQuicSession final : public http::ClientSession {
 public:
  TracedQuicSession(SpanLog& log, Simulator& sim, Host& host, Address server,
                    quic::TokenCache* tokens)
      : log_(log),
        client_(sim, host, server, harness::kQuicPort, quic::QuicConfig{},
                *tokens) {}

  void connect(std::function<void()> on_ready) override {
    client_.connect(traced_callback(log_, std::move(on_ready)));
  }
  http::AppStream* open_stream() override {
    ScopedSpan span(log_, kQuicSession);
    quic::QuicStream* s = client_.connection().open_stream();
    if (s == nullptr) return nullptr;
    auto adapter =
        std::make_unique<http::QuicAppStream>(*s, client_.connection());
    http::AppStream& inner = *adapter;
    auto traced = std::make_unique<TracedStream>(log_, kQuicWrite, inner,
                                                 std::move(adapter));
    http::AppStream* out = traced.get();
    streams_[s->id()] = std::move(traced);
    return out;
  }
  bool can_open_stream() const override {
    ScopedSpan span(log_, kQuicSession);
    return client_.connection().can_open_stream();
  }
  void flush() override {
    ScopedSpan span(log_, kQuicWrite);
    client_.connection().flush();
  }
  const char* protocol_name() const override { return "QUIC"; }

  quic::QuicConnection& connection() { return client_.connection(); }
  PacketSink& endpoint() { return client_; }
  Port local_port() const { return kFirstUdpEphemeralPort; }

 private:
  SpanLog& log_;
  quic::QuicClient client_;
  std::map<std::uint64_t, std::unique_ptr<TracedStream>> streams_;
};

// http::H2ClientSession with traced streams and its endpoint reachable.
class TracedH2Session final : public http::ClientSession {
 public:
  TracedH2Session(SpanLog& log, Simulator& sim, Host& host, Address server,
                  quic::TokenCache* /*tokens*/)
      : log_(log),
        client_(sim, host, server, harness::kTcpPort, tcp::TcpConfig{}) {}

  void connect(std::function<void()> on_ready) override {
    session_ = std::make_unique<http::H2Session>(client_.connection(),
                                                 /*is_client=*/true,
                                                 kMaxConcurrentStreams);
    client_.connect(traced_callback(log_, std::move(on_ready)));
  }
  http::AppStream* open_stream() override {
    ScopedSpan span(log_, kTcpSession);
    http::H2Stream* s = session_->open_stream();
    if (s == nullptr) return nullptr;
    auto traced = std::make_unique<TracedStream>(log_, kTcpWrite, *s);
    http::AppStream* out = traced.get();
    streams_[s->id()] = std::move(traced);
    return out;
  }
  bool can_open_stream() const override {
    ScopedSpan span(log_, kTcpSession);
    return session_ && session_->can_open_stream();
  }
  void flush() override {
    ScopedSpan span(log_, kTcpWrite);
    client_.connection().flush();
  }
  const char* protocol_name() const override { return "TCP"; }

  tcp::TcpConnection& connection() { return client_.connection(); }
  PacketSink& endpoint() { return client_; }
  Port local_port() const { return client_.local_port(); }

 private:
  // H2ClientSession's default SETTINGS_MAX_CONCURRENT_STREAMS.
  static constexpr std::size_t kMaxConcurrentStreams = 100;
  SpanLog& log_;
  tcp::TcpClient client_;
  std::unique_ptr<http::H2Session> session_;
  std::map<std::uint64_t, std::unique_ptr<TracedStream>> streams_;
};

using Counts = std::map<std::string, std::uint64_t>;

struct QuicStack {
  using Server = http::QuicObjectServer;
  using Session = TracedQuicSession;
  using Config = quic::QuicConfig;
  static constexpr IpProto kProto = IpProto::kUdp;
  static constexpr Port kPort = harness::kQuicPort;
  static constexpr SpanName kRx = kQuicRx;
  static constexpr const char* kName = "QUIC";

  // The per-run transport totals harness::detail::fold_quic_run_metrics
  // records, under the benchmark's names.
  static void fold(Counts& c, Session& session, Server& server) {
    const quic::ConnectionStats& cs = session.connection().stats();
    c["quic.packets_sent"] += cs.packets_sent;
    c["quic.packets_lost"] += cs.packets_declared_lost;
    c["quic.spurious_losses"] += cs.spurious_losses;
    c["quic.tlps"] += cs.tail_loss_probes;
    c["quic.rtos"] += cs.rto_count;
    if (const quic::QuicConnection* sc = server.server().latest_connection()) {
      const quic::ConnectionStats& ss = sc->stats();
      c["quic.packets_sent"] += ss.packets_sent;
      c["quic.packets_lost"] += ss.packets_declared_lost;
      c["quic.spurious_losses"] += ss.spurious_losses;
      c["quic.rtos"] += ss.rto_count;
    }
  }
};

struct TcpStack {
  using Server = http::TcpObjectServer;
  using Session = TracedH2Session;
  using Config = tcp::TcpConfig;
  static constexpr IpProto kProto = IpProto::kTcp;
  static constexpr Port kPort = harness::kTcpPort;
  static constexpr SpanName kRx = kTcpRx;
  static constexpr const char* kName = "TCP";

  // As harness::detail::fold_tcp_run_metrics.
  static void fold(Counts& c, Session& session, Server& server) {
    const tcp::TcpStats& cs = session.connection().stats();
    c["tcp.segments_sent"] += cs.segments_sent;
    c["tcp.retransmits"] += cs.retransmitted_segments;
    c["tcp.dsack_events"] += cs.dsack_events;
    c["tcp.rtos"] += cs.rto_count;
    if (const tcp::TcpConnection* sc = server.server().latest_connection()) {
      const tcp::TcpStats& ss = sc->stats();
      c["tcp.segments_sent"] += ss.segments_sent;
      c["tcp.retransmits"] += ss.retransmitted_segments;
      c["tcp.dsack_events"] += ss.dsack_events;
      c["tcp.rtos"] += ss.rto_count;
    }
  }
};

// One run's objects in harness::run_*_page_load's construction order
// (testbed, server, client session, application), so they are also
// destroyed in its order. The taps follow the endpoints they front.
template <typename Stack, typename App>
struct RunObjects {
  template <typename Load>
  RunObjects(Tracer& tr, const harness::Scenario& sc, quic::TokenCache* tokens,
             const Load& load)
      : tb(sc, tr.log),
        server(tb.sim, *tb.server, Stack::kPort, typename Stack::Config{}),
        server_tap(tr, Stack::kRx, *tb.server, Stack::kProto, Stack::kPort,
                   server.server()),
        session(tr.log, tb.sim, *tb.client, tb.server->address(), tokens),
        client_tap(tr, Stack::kRx, *tb.client, Stack::kProto,
                   session.local_port(), session.endpoint()),
        app(tb.sim, session, load) {}

  TracedTestbed tb;
  typename Stack::Server server;
  RxTap server_tap;
  typename Stack::Session session;
  RxTap client_tap;
  App app;
};

// Output checks on a finished run: every object or transaction delivered
// exactly the bytes it asked for, and the server saw every request.
void check_outputs(const http::PageLoader& loader, const http::PageConfig& page,
                   const http::ObjectService& service, const std::string& where,
                   Outcome& out) {
  for (const http::ObjectTiming& o : loader.result().objects) {
    if (!o.done || o.bytes_received != page.object_bytes) {
      out.fail(1, where + ": an object's bytes differ from the request");
      return;
    }
  }
  if (service.requests_served() != page.object_count) {
    out.fail(1, where + ": server request count differs from the page");
  }
}

void check_outputs(const workload::ScenarioRunner& runner,
                   const workload::ScenarioSpec& spec,
                   const http::ObjectService& service, const std::string& where,
                   Outcome& out) {
  const workload::ScenarioResult& r = runner.result();
  std::uint64_t down = 0;
  for (const workload::TransactionTiming& t : r.detail) {
    down += t.download_bytes;
  }
  if (r.transactions != spec.total_transactions()) {
    out.fail(1, where + ": completed transactions differ from the scenario");
  } else if (down != spec.total_download_bytes()) {
    out.fail(1, where + ": downloaded bytes differ from the requested bytes");
  } else if (service.upload_bytes_received() != spec.total_upload_bytes()) {
    out.fail(1, where + ": uploaded bytes differ from the requested bytes");
  }
}

// One simulated run with spans; returns its virtual duration in seconds,
// nullopt on timeout. Counts follow the harness: the profile counters for
// every run, transport totals only for measured (non-warm) runs.
template <typename Stack, typename App, typename Load>
std::optional<double> traced_run(Tracer& tr, const harness::Scenario& sc,
                                 const Load& load, quic::TokenCache* tokens,
                                 Duration timeout, bool measured,
                                 const std::string& where, Outcome& out) {
  tr.log.set_run(tr.next_run++);
  std::unique_ptr<RunObjects<Stack, App>> run;
  {
    ScopedSpan span(tr.log, kHarnessSetup);
    run = std::make_unique<RunObjects<Stack, App>>(tr, sc, tokens, load);
    run->app.start();
  }
  Simulator& sim = run->tb.sim;
  const TimePoint deadline = sim.now() + timeout;
  while (!run->app.finished() && sim.now() < deadline) {
    ScopedSpan span(tr.log, kSimStep);
    if (!sim.step()) break;
  }
  const bool done = run->app.finished();

  Counts& c = out.counts;
  const LinkStats& up = run->tb.access->a_to_b().stats();
  const LinkStats& down = run->tb.access->b_to_a().stats();
  c["harness.runs"] += 1;
  c["sim.events"] += sim.dispatched_events();
  c["sim.timer_ops"] += sim.timer_ops();
  c["sim.event_pool_slots"] += sim.event_pool_slots();
  c["sim.callback_heap"] += sim.callback_heap_allocs();
  c["net.packets_forwarded"] += up.delivered + down.delivered;
  c["net.bytes_moved"] +=
      static_cast<std::uint64_t>(up.bytes_delivered + down.bytes_delivered);

  std::optional<double> duration;
  if (measured) {
    if (!done) c["harness.timeouts"] += 1;
    c["net.drops_queue"] += up.dropped_queue + down.dropped_queue;
    c["net.drops_random"] += up.dropped_random + down.dropped_random;
    c["net.reordered"] +=
        up.delivered_out_of_order + down.delivered_out_of_order;
    Stack::fold(c, run->session, run->server);
    const std::string at = where + " " + Stack::kName;
    if (run->client_tap.packets() == 0) {
      out.fail(1, at + ": the client receive tap saw no packets");
    }
    if constexpr (std::is_same_v<App, http::PageLoader>) {
      if (done) {
        c["workload.transactions"] += run->app.result().objects.size();
        check_outputs(run->app, load, run->server.service(), at, out);
        duration = to_seconds(run->app.result().plt);
      }
    } else {
      c["workload.transactions"] += run->app.result().transactions;
      if (done) {
        check_outputs(run->app, load, run->server.service(), at, out);
        duration = to_seconds(run->app.result().duration);
      }
    }
  }
  {
    ScopedSpan span(tr.log, kHarnessTeardown);
    run.reset();
  }
  tr.end_run();
  return duration;
}

template <typename App, typename Load>
void traced_cell(Tracer& tr, const harness::Scenario& sc, const Load& load,
                 Duration timeout, const std::string& where,
                 Outcome::Cell& cell, Outcome& out) {
  // The 0-RTT warm fetch, as compare_plt_async / compare_scenario_async
  // run it: a discarded 1 KB page load that fills the token cache.
  quic::TokenCache warm_tokens;
  harness::Scenario warm = sc;
  warm.seed = sc.seed + 7919;
  traced_run<QuicStack, http::PageLoader>(tr, warm, http::PageConfig{1, 1024},
                                          &warm_tokens, timeout, false, where,
                                          out);
  // Round 0 (harness::detail::round_scenario adds 1000003 per round, so
  // round 0 keeps the cell's seed): QUIC then TCP, paired.
  quic::TokenCache tokens = warm_tokens;
  if (auto d = traced_run<QuicStack, App>(tr, sc, load, &tokens, timeout,
                                             true, where, out)) {
    cell.quic_s.push_back(*d);
  }
  if (auto d = traced_run<TcpStack, App>(tr, sc, load, nullptr, timeout,
                                            true, where, out)) {
    cell.tcp_s.push_back(*d);
  }
}

}  // namespace

TracedIteration run_traced(const Workload& w, Duration timeout,
                           bool capture_wire) {
  TracedIteration it;
  Tracer tr;
  tr.it = &it;
  tr.capture = capture_wire;
  Outcome& out = it.outcome;
  out.cells.resize(w.cell_count());
  for (const std::string& name : count_names()) out.counts[name] = 0;
  for (std::size_t c = 0; c < w.cell_count(); ++c) {
    const harness::Scenario& sc = w.cell_scenario(c);
    const std::string where = w.name + " cell " + std::to_string(c);
    if (w.is_grid()) {
      const harness::Workload& col = w.cols[c % w.cols.size()];
      traced_cell<http::PageLoader>(
          tr, sc, http::PageConfig{col.object_count, col.object_bytes},
          timeout, where, out.cells[c], out);
    } else {
      traced_cell<workload::ScenarioRunner>(tr, sc, *w.spec, timeout, where,
                                            out.cells[c], out);
    }
  }
  check_runs(w, /*rounds=*/1, out);
  return it;
}

}  // namespace perfbench
