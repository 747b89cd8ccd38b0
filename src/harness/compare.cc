#include "harness/compare.h"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>

#include "harness/compare_detail.h"
#include "net/trace.h"
#include "obs/flight_recorder.h"
#include "obs/sampler.h"
#include "sim/timer.h"
#include "util/check.h"
#include "workload/executor.h"

namespace longlook::harness {

namespace detail {

void emit_run_summary(obs::TraceSink* sink, bool done, Duration plt,
                      TimePoint now) {
  if (sink == nullptr) return;
  obs::TraceEvent ev("run:summary", now);
  if (done) {
    ev.i("plt_ns", plt.count());
  } else {
    ev.b("timed_out", true);
  }
  sink->record(ev);
}

void register_testbed_probes(obs::StateSampler& sampler, Testbed& tb) {
  sampler.add_queue("up", [&tb] {
    const LinkStats& s = tb.uplink().stats();
    return obs::QueueSample{tb.uplink().queued_bytes(), s.dropped_queue,
                            s.dropped_random, s.delivered};
  });
  sampler.add_queue("down", [&tb] {
    const LinkStats& s = tb.downlink().stats();
    return obs::QueueSample{tb.downlink().queued_bytes(), s.dropped_queue,
                            s.dropped_random, s.delivered};
  });
  sampler.add_host("client", [&tb] {
    Host& h = tb.client_host();
    return obs::HostSample{h.packets_sent(), h.bytes_sent(),
                           h.packets_received()};
  });
  sampler.add_host("server", [&tb] {
    Host& h = tb.server_host();
    return obs::HostSample{h.packets_sent(), h.bytes_sent(),
                           h.packets_received()};
  });
}

void QuicStack::fold(obs::MetricsRegistry& m, const std::string& p,
                     Session& session, Server& server) {
  const quic::ConnectionStats& cs = session.connection().stats();
  m.incr(p + "packets_sent", cs.packets_sent);
  m.incr(p + "packets_received", cs.packets_received);
  m.incr(p + "bytes_sent", cs.bytes_sent);
  m.incr(p + "stream_bytes_delivered", cs.stream_bytes_delivered);
  m.incr(p + "packets_declared_lost", cs.packets_declared_lost);
  m.incr(p + "spurious_losses", cs.spurious_losses);
  m.incr(p + "tail_loss_probes", cs.tail_loss_probes);
  m.incr(p + "rto_count", cs.rto_count);
  m.incr(p + "handshake_rtts", cs.handshake_round_trips);
  if (const quic::QuicConnection* sc = server.server().latest_connection()) {
    const quic::ConnectionStats& ss = sc->stats();
    m.incr(p + "server_packets_sent", ss.packets_sent);
    m.incr(p + "server_declared_lost", ss.packets_declared_lost);
    m.incr(p + "server_spurious_losses", ss.spurious_losses);
    m.incr(p + "server_rto_count", ss.rto_count);
  }
}

void TcpStack::fold(obs::MetricsRegistry& m, const std::string& p,
                    Session& session, Server& server) {
  const tcp::TcpStats& cs = session.connection().stats();
  m.incr(p + "segments_sent", cs.segments_sent);
  m.incr(p + "segments_received", cs.segments_received);
  m.incr(p + "bytes_sent", cs.bytes_sent);
  m.incr(p + "retransmitted_segments", cs.retransmitted_segments);
  m.incr(p + "fast_retransmits", cs.fast_retransmits);
  m.incr(p + "tail_loss_probes", cs.tail_loss_probes);
  m.incr(p + "rto_count", cs.rto_count);
  m.incr(p + "dsack_events", cs.dsack_events);
  m.incr(p + "handshake_rtts", cs.handshake_round_trips);
  if (const tcp::TcpConnection* sc = server.server().latest_connection()) {
    const tcp::TcpStats& ss = sc->stats();
    m.incr(p + "server_segments_sent", ss.segments_sent);
    m.incr(p + "server_retransmitted", ss.retransmitted_segments);
    m.incr(p + "server_dsack_events", ss.dsack_events);
    m.incr(p + "server_rto_count", ss.rto_count);
  }
}

}  // namespace detail

namespace {

using detail::QuicStack;
using detail::TcpStack;

// "v" is the trace schema version (docs/trace_schema.md); v2 added the
// run:hist record type, v3 the ts:/flight: families. A page load describes
// its Workload; a scenario run maps the schema's workload fields to its
// totals (objects = transactions, object_bytes = bytes downloaded) and
// carries the DSL string, so a trace is self-describing.
void emit_run_start(obs::TraceSink* sink, const char* proto,
                    const Scenario& scenario,
                    const workload::ScenarioSpec& spec, const Workload* page,
                    TimePoint now) {
  if (sink == nullptr) return;
  // The event holds views: the DSL string must outlive record().
  const std::string dsl = page != nullptr ? std::string() : spec.format();
  obs::TraceEvent ev("run:start", now);
  ev.u("v", 3)
      .s("proto", proto)
      .s("scenario", scenario.name)
      .u("seed", scenario.seed);
  if (page != nullptr) {
    ev.u("objects", page->object_count).u("object_bytes", page->object_bytes);
  } else {
    ev.u("objects", spec.total_transactions())
        .u("object_bytes", spec.total_download_bytes())
        .s("perf_scenario", dsl);
  }
  sink->record(ev);
}

// Folds the testbed's link drop/reorder totals into `m` under prefix `p`.
void fold_link_metrics(obs::MetricsRegistry& m, const std::string& p,
                       Testbed& tb) {
  const LinkStats& up = tb.uplink().stats();
  const LinkStats& down = tb.downlink().stats();
  m.incr(p + "link_drops_queue", up.dropped_queue + down.dropped_queue);
  m.incr(p + "link_drops_random", up.dropped_random + down.dropped_random);
  m.incr(p + "link_reordered",
         up.delivered_out_of_order + down.delivered_out_of_order);
}

// Periodic `ts:` sampling opt-in: opts.sample_state, or LL_SAMPLE set to
// anything but "" / "0". Only consulted when the run is traced.
bool sampling_enabled(const CompareOptions& opts) {
  if (opts.sample_state) return true;
  const char* env = std::getenv("LL_SAMPLE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

// Folds sampler telemetry into the profiler shard: `ts_samples` (records
// emitted this run) and `flight_dumps` (thread-local dump-count delta since
// `dumps_before`). Null sampler contributes 0 samples.
void fold_sampler_counters(obs::ProfilerShard* prof,
                           const obs::StateSampler* sampler,
                           std::uint64_t dumps_before) {
  if (prof == nullptr) return;
  if (sampler != nullptr) prof->add("ts_samples", sampler->records_emitted());
  const std::uint64_t dumps = obs::FlightRecorder::thread_dumps();
  if (dumps > dumps_before) prof->add("flight_dumps", dumps - dumps_before);
}

// Per-run metrics + trace epilogue. `res.duration` is the run's headline
// duration (page PLT or scenario completion time), observed as
// "<prefix>plt_us" on completion.
template <typename S>
void fold_run_metrics(const RunObserver& observer, const Workload* page,
                      bool done, const workload::ScenarioResult& res,
                      typename S::Session& session, typename S::Server& server,
                      Testbed& tb) {
  if (observer.metrics == nullptr) return;
  obs::MetricsRegistry& m = *observer.metrics;
  const std::string& p = observer.prefix;
  if (page == nullptr) {
    m.incr(p + "scn_transactions", res.transactions);
    m.incr(p + "scn_upload_bytes", res.upload_bytes);
    m.incr(p + "scn_download_bytes", res.download_bytes);
  }
  m.incr(p + "runs");
  if (!done) m.incr(p + "timeouts");
  S::fold(m, p, session, server);
  fold_link_metrics(m, p, tb);
  if (done) m.observe(p + "plt_us", res.duration.count() / 1000);
  if (observer.trace != nullptr) {
    // Histograms first: run:metrics stays the artifact's last line.
    m.record_histograms_to(*observer.trace, tb.sim().now());
    m.record_to(*observer.trace, tb.sim().now());
  }
}

std::optional<double> duration_s(const std::optional<ScenarioRunStats>& s) {
  if (!s) return std::nullopt;
  return s->duration_s;
}

// Stack S's client session, aimed where `opts` says (QUIC: with `tokens`).
template <typename S>
typename S::Session make_session(Testbed& tb, const CompareOptions& opts,
                                 quic::TokenCache* tokens) {
  const Address target = opts.*S::kConnectToMid ? tb.mid_host().address()
                                                : tb.server_host().address();
  const Port port = (opts.*S::kConnectPort).value_or(S::kPort);
  if constexpr (S::kTakesTokens) {
    return typename S::Session(tb.sim(), tb.client_host(), target, port,
                               opts.*S::kConfig, *tokens);
  } else {
    return typename S::Session(tb.sim(), tb.client_host(), target, port,
                               opts.*S::kConfig);
  }
}

}  // namespace

void fold_profile_counters(obs::Profiler* profiler, Testbed& tb) {
  obs::ProfilerShard* prof = obs::Profiler::local(profiler);
  if (prof == nullptr) return;
  prof->add("runs", 1);
  prof->add("sim_events", tb.sim().dispatched_events());
  prof->add("timer_ops", tb.sim().timer_ops());
  const LinkStats& up = tb.uplink().stats();
  const LinkStats& down = tb.downlink().stats();
  prof->add("packets_forwarded", up.delivered + down.delivered);
  prof->add("bytes_moved", up.bytes_delivered + down.bytes_delivered);
  // Allocation telemetry for the pooled sim core. Both counts depend only
  // on the simulated workload (per-Simulator pool high-water mark and
  // oversized-callback count), so they are deterministic and safe to gate
  // with hard floors in CI (tools/bench_report.py perf-floor).
  prof->add("sim_event_pool_slots", tb.sim().event_pool_slots());
  prof->add("sim_callback_heap", tb.sim().callback_heap_allocs());
}

namespace detail {

template <typename S>
std::optional<ScenarioRunStats> run_stack(const Scenario& scenario,
                                          const workload::ScenarioSpec& spec,
                                          const Workload* page,
                                          const CompareOptions& opts,
                                          quic::TokenCache* tokens,
                                          const RunObserver* observer) {
  obs::ProfilerShard* prof = obs::Profiler::local(opts.profiler);
  obs::ScopedTimer run_timer(prof, S::kTimer);
  obs::TraceSink* sink = observer != nullptr ? observer->trace : nullptr;
  // Tracing enabled: run under a copy of the options that carries the sink
  // into both endpoints' transport configs. Disabled: the original options
  // pass through untouched (no copy, no null-sink formatting anywhere).
  CompareOptions traced;
  const CompareOptions* eff = &opts;
  if (sink != nullptr) {
    traced = opts;
    (traced.*S::kConfig).trace = sink;
    eff = &traced;
  }
  // Periodic `ts:` sampling (schema v3). Declared before the endpoints so
  // connections deregister (in their destructors) before the sampler dies.
  std::optional<obs::StateSampler> sampler;
  const std::uint64_t dumps_before = obs::FlightRecorder::thread_dumps();
  if (sink != nullptr && sampling_enabled(opts)) {
    sampler.emplace(sink);
    (traced.*S::kConfig).sampler = &*sampler;
  }

  Testbed tb(scenario);
  // Declared after tb so they detach from the links before teardown.
  std::optional<LinkEventObserver> up_obs;
  std::optional<LinkEventObserver> down_obs;
  if (sink != nullptr) {
    up_obs.emplace(tb.uplink(), *sink, "up");
    down_obs.emplace(tb.downlink(), *sink, "down");
    emit_run_start(sink, S::kName, scenario, spec, page, tb.sim().now());
  }
  if (sampler) register_testbed_probes(*sampler, tb);
  const auto& config = eff->*S::kConfig;
  typename S::Server server(tb.sim(), tb.server_host(), S::kPort, config);
  // Destroyed after the session and driver, before the testbed.
  const std::shared_ptr<void> keepalive =
      eff->setup ? eff->setup(tb) : nullptr;

  typename S::Session session = make_session<S>(tb, *eff, tokens);
  workload::ScenarioRunner driver(tb.sim(), session, spec);
  driver.start();
  std::optional<PeriodicTimer> sample_timer;
  if (sampler) {
    sample_timer.emplace(tb.sim(), eff->sample_interval,
                         [&] { sampler->sample(tb.sim().now()); });
  }
  const bool done = tb.run_until([&] { return driver.finished(); },
                                 eff->timeout);
  const workload::ScenarioResult& res = driver.result();
  emit_run_summary(sink, done, res.duration, tb.sim().now());
  fold_profile_counters(opts.profiler, tb);
  fold_sampler_counters(prof, sampler ? &*sampler : nullptr, dumps_before);
  if (observer != nullptr) {
    fold_run_metrics<S>(*observer, page, done, res, session, server, tb);
  }
  if (!done) return std::nullopt;
  return ScenarioRunStats{to_seconds(res.duration), res.transactions,
                          res.upload_bytes, res.download_bytes};
}

template std::optional<ScenarioRunStats> run_stack<QuicStack>(
    const Scenario&, const workload::ScenarioSpec&, const Workload*,
    const CompareOptions&, quic::TokenCache*, const RunObserver*);
template std::optional<ScenarioRunStats> run_stack<TcpStack>(
    const Scenario&, const workload::ScenarioSpec&, const Workload*,
    const CompareOptions&, quic::TokenCache*, const RunObserver*);

}  // namespace detail

video::QoeMetrics run_video(const Scenario& scenario,
                            const video::VideoQuality& quality,
                            Protocol protocol, obs::Profiler* profiler) {
  const auto run = [&]<typename S>(S) {
    const CompareOptions opts{};
    quic::TokenCache tokens;  // empty: a cold start
    Testbed tb(scenario);
    typename S::Server server(tb.sim(), tb.server_host(), S::kPort,
                              opts.*S::kConfig);
    typename S::Session session = make_session<S>(tb, opts, &tokens);
    video::StreamingSession player(tb.sim(), session, quality);
    player.start();
    // The watch window always closes at 60 s; the bound only guards a hang.
    tb.run_until([&] { return player.finished(); }, seconds(90));
    fold_profile_counters(profiler, tb);
    return player.metrics();
  };
  return protocol == Protocol::kQuic ? run(QuicStack{}) : run(TcpStack{});
}

std::optional<double> run_quic_page_load(const Scenario& scenario,
                                         const Workload& workload,
                                         const CompareOptions& opts,
                                         quic::TokenCache& tokens,
                                         const RunObserver* observer) {
  return duration_s(detail::run_stack<QuicStack>(
      scenario, workload::page_scenario(workload), &workload, opts, &tokens,
      observer));
}

std::optional<double> run_tcp_page_load(const Scenario& scenario,
                                        const Workload& workload,
                                        const CompareOptions& opts,
                                        const RunObserver* observer) {
  return duration_s(detail::run_stack<TcpStack>(
      scenario, workload::page_scenario(workload), &workload, opts, nullptr,
      observer));
}

namespace {

// Cell ids are assigned at submission time. Submissions happen serially on
// the calling thread regardless of LL_JOBS, so the id — and therefore every
// artifact file name — is identical for any worker count.
std::atomic<std::uint64_t> g_cell_counter{0};

std::string sanitize_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return out;
}

// Trace artifacts land in opts.trace_dir, or $LL_TRACE_OUT when that is
// empty; both empty == tracing disabled.
std::string trace_directory(const CompareOptions& opts) {
  if (!opts.trace_dir.empty()) return opts.trace_dir;
  const char* env = std::getenv("LL_TRACE_OUT");
  return env != nullptr ? std::string(env) : std::string();
}

// Warm-fetch seed offsets of side 0 and side 1.
constexpr std::array<std::uint64_t, 2> kWarmSeedOffset = {7919, 104729};

// One cell's description plus the scratch its jobs share. Round jobs write
// disjoint slots; each round reads a settled post-warm token cache and
// copies it — rounds never share mutable state, which is what makes the
// fold independent of the worker count.
struct Cell {
  Scenario scenario;
  workload::ScenarioSpec spec;
  std::optional<Workload> page;
  std::array<detail::CellSide, 2> sides;
  std::string dir;    // trace directory; empty == untraced
  std::string label;  // artifact label, resolved at submission
  std::array<quic::TokenCache, 2> tokens;
  std::array<std::vector<std::optional<double>>, 2> plts;
  // Per-round metric totals, merged into CellResult::metrics in round order
  // by the commit job.
  std::vector<obs::MetricsRegistry> round_metrics;

  std::optional<double> run(std::size_t side, const Scenario& round,
                            quic::TokenCache& side_tokens,
                            const RunObserver& observer) const {
    const detail::CellSide& s = sides[side];
    const Workload* w = page ? &*page : nullptr;
    if (s.quic) {
      return duration_s(detail::run_stack<QuicStack>(
          round, spec, w, s.opts, &side_tokens, &observer));
    }
    return duration_s(detail::run_stack<TcpStack>(round, spec, w, s.opts,
                                                  nullptr, &observer));
  }

  void run_round(int r) {
    // Same network, per-round derived seed; side 0 then side 1 back to
    // back with identical network randomness.
    Scenario round = scenario;
    round.seed = scenario.seed + static_cast<std::uint64_t>(r) * 1000003;
    const std::size_t slot = static_cast<std::size_t>(r);
    const bool tracing = !dir.empty();
    std::array<obs::JsonLinesSink, 2> sinks;
    for (std::size_t i = 0; i < 2; ++i) {
      quic::TokenCache side_tokens = tokens[i];
      const RunObserver observer{tracing ? &sinks[i] : nullptr,
                                 &round_metrics[slot], sides[i].prefix};
      plts[i][slot] = run(i, round, side_tokens, observer);
    }
    if (!tracing) return;
    const std::string stem = dir + "/" + label + "_r" + std::to_string(r);
    for (std::size_t i = 0; i < 2; ++i) {
      LL_CHECK(sinks[i].write_file(stem + "_" + sides[i].suffix + ".jsonl"));
    }
  }

  // Folds the round slots into *out in round order (means, Welch's t-test,
  // merged metrics). Side 0 fills the QUIC columns, side 1 the TCP ones.
  void commit(CellResult* out) const {
    CellResult cell;
    for (const auto& plt : plts[0]) {
      if (plt) cell.quic_plt_s.push_back(*plt); else cell.all_complete = false;
    }
    for (const auto& plt : plts[1]) {
      if (plt) cell.tcp_plt_s.push_back(*plt); else cell.all_complete = false;
    }
    cell.quic_mean_s = stats::mean(cell.quic_plt_s);
    cell.tcp_mean_s = stats::mean(cell.tcp_plt_s);
    const auto welch = stats::welch_t_test(cell.tcp_plt_s, cell.quic_plt_s);
    cell.p_value = welch.p_value;
    cell.significant = welch.significant();
    cell.pct_diff =
        stats::percent_difference(cell.tcp_mean_s, cell.quic_mean_s);
    for (const obs::MetricsRegistry& m : round_metrics) cell.metrics.merge(m);
    *out = std::move(cell);
  }
};

}  // namespace

namespace detail {

SweepRunner::Ticket submit_cell(SweepRunner& runner, const Scenario& scenario,
                                workload::ScenarioSpec spec,
                                std::optional<Workload> page,
                                std::array<CellSide, 2> sides, CellResult* out,
                                ProgressReporter* progress) {
  auto cell = std::make_shared<Cell>();
  cell->scenario = scenario;
  cell->spec = std::move(spec);
  cell->page = page;
  cell->sides = std::move(sides);
  const CompareOptions& opts = cell->sides[0].opts;
  const int rounds = opts.rounds;
  // Resolved now, on the submitting thread, so names don't depend on which
  // worker eventually runs the round.
  cell->dir = trace_directory(opts);
  if (!cell->dir.empty()) {
    const std::uint64_t id = g_cell_counter.fetch_add(1);
    cell->label = "c" + std::to_string(id) + "_" +
                  sanitize_label(opts.trace_label.empty() ? scenario.name
                                                          : opts.trace_label);
    std::filesystem::create_directories(cell->dir);
  }
  for (auto& p : cell->plts) p.resize(static_cast<std::size_t>(rounds));
  cell->round_metrics.resize(static_cast<std::size_t>(rounds));

  const SweepRunner::Ticket warm = runner.submit([cell] {
    for (std::size_t i = 0; i < 2; ++i) {
      const CellSide& side = cell->sides[i];
      if (!side.quic || !side.opts.warm_zero_rtt) continue;
      Scenario w = cell->scenario;
      w.seed = cell->scenario.seed + kWarmSeedOffset[i];
      (void)run_quic_page_load(w, {1, 1024}, side.opts, cell->tokens[i]);
    }
  });
  std::vector<SweepRunner::Ticket> round_jobs;
  round_jobs.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    round_jobs.push_back(runner.submit([cell, r] { cell->run_round(r); },
                                       {warm}));
  }
  return runner.submit([cell, out, progress] {
    cell->commit(out);
    if (progress != nullptr) progress->tick();
  }, round_jobs);
}

}  // namespace detail

SweepRunner::Ticket compare_plt_async(SweepRunner& runner,
                                      const Scenario& scenario,
                                      const Workload& workload,
                                      const CompareOptions& opts,
                                      CellResult* out,
                                      ProgressReporter* progress) {
  return detail::submit_cell(runner, scenario,
                             workload::page_scenario(workload), workload,
                             {{{true, opts, "quic", "quic."},
                               {false, opts, "tcp", "tcp."}}},
                             out, progress);
}

SweepRunner::Ticket compare_quic_pair_async(SweepRunner& runner,
                                            const Scenario& scenario,
                                            const Workload& workload,
                                            const CompareOptions& a_opts,
                                            const CompareOptions& b_opts,
                                            CellResult* out,
                                            ProgressReporter* progress) {
  // Convention: "a" plays the QUIC role, "b" the baseline role.
  return detail::submit_cell(runner, scenario,
                             workload::page_scenario(workload), workload,
                             {{{true, a_opts, "a", "quic_a."},
                               {true, b_opts, "b", "quic_b."}}},
                             out, progress);
}

std::vector<std::vector<CellResult>> run_plt_grid(
    SweepRunner& runner, const std::vector<Scenario>& rows,
    const std::vector<Workload>& cols, const CompareOptions& opts,
    ProgressReporter* progress) {
  std::vector<std::vector<CellResult>> grid(rows.size(),
                                            std::vector<CellResult>(cols.size()));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      compare_plt_async(runner, rows[r], cols[c], opts, &grid[r][c], progress);
    }
  }
  runner.wait_all();
  return grid;
}

CellResult compare_plt(const Scenario& scenario, const Workload& workload,
                       const CompareOptions& opts) {
  SweepRunner runner;
  CellResult out;
  compare_plt_async(runner, scenario, workload, opts, &out);
  runner.wait_all();
  return out;
}

CellResult compare_quic_pair(const Scenario& scenario,
                             const Workload& workload,
                             const CompareOptions& a_opts,
                             const CompareOptions& b_opts) {
  SweepRunner runner;
  CellResult out;
  compare_quic_pair_async(runner, scenario, workload, a_opts, b_opts, &out);
  runner.wait_all();
  return out;
}

}  // namespace longlook::harness
