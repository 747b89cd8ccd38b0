// Paired QUIC-vs-TCP page-load comparison (the paper's core methodology,
// Secs. 3.3/5.2): >=10 rounds per scenario, QUIC and TCP back-to-back with
// the same network randomness per round, Welch's t-test at p < 0.01, and
// persistent 0-RTT state across rounds (sockets closed, token cache kept).
//
// Page loads and the scenario-DSL runs of perf.h share one run body (a page
// load is the one-entry scenario `*1:0:-:page=NxB;`) and one paired-cell
// submitter; both live in compare_detail.h.
#pragma once

#include <functional>
#include <optional>

#include "harness/runner.h"
#include "harness/testbed.h"
#include "http/h2_session.h"
#include "http/quic_session.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "stats/stats.h"
#include "video/streaming.h"
#include "workload/scenario.h"

namespace longlook::harness {

// A page of N objects of B bytes: the workload of a page-load cell.
using Workload = workload::PageGraph;

struct CompareOptions {
  int rounds = 10;
  Duration timeout = seconds(600);
  quic::QuicConfig quic{};
  tcp::TcpConfig tcp{};
  // Warm the token cache with a discarded fetch so measured rounds use
  // 0-RTT, like the paper's methodology.
  bool warm_zero_rtt = true;
  // Hook to customise the testbed before each run (e.g. start a variable-
  // bandwidth schedule, place a proxy). Called after servers exist. The
  // returned keep-alive owns whatever the hook created (proxy, schedule)
  // and is destroyed before the testbed, so nothing outlives the simulator.
  std::function<std::shared_ptr<void>(Testbed&)> setup;
  // Override the address/port the client connects to (proxy experiments).
  std::optional<Port> quic_connect_port;
  std::optional<Port> tcp_connect_port;
  bool quic_connect_to_mid = false;  // connect to the mid host (proxy)
  bool tcp_connect_to_mid = false;
  // Structured-trace artifacts: when non-empty (or LL_TRACE_OUT is set),
  // every run writes a JSON-lines event trace under this directory, one file
  // per (cell, round, protocol). File names are derived from a
  // submission-order cell id, so artifacts are byte-identical at any
  // LL_JOBS. Empty + unset env == tracing disabled (zero cost).
  std::string trace_dir;
  // Optional label folded into trace file names (defaults to the scenario
  // name).
  std::string trace_label;
  // Periodic internal-state sampling (trace schema v3 `ts:` records): when
  // true (or LL_SAMPLE is set) and tracing is on, every run drives an
  // obs::StateSampler at `sample_interval` of virtual time, snapshotting
  // connection congestion state, access-link queues, and host egress into
  // the run's trace artifact. Off (and no sink) == zero cost: the run takes
  // the exact untraced code path.
  bool sample_state = false;
  Duration sample_interval = milliseconds(10);
  // Testbed self-observability: when non-null, every run (warm fetches and
  // scenario runs included) folds its simulator/link work counters (events
  // dispatched, timer ops, packets forwarded, bytes moved) and wall time
  // into the calling worker's shard.
  // nullptr == profiling disabled, zero cost, byte-identical output. Must
  // outlive the sweep.
  obs::Profiler* profiler = nullptr;
};

struct CellResult {
  std::vector<double> quic_plt_s;
  std::vector<double> tcp_plt_s;
  double quic_mean_s = 0;
  double tcp_mean_s = 0;
  double pct_diff = 0;  // positive: QUIC faster
  double p_value = 1.0;
  bool significant = false;
  bool all_complete = true;
  // Per-cell transport/link totals, folded from every round in round order
  // (keys prefixed "quic." / "tcp.", or "quic_a." / "quic_b." for pair
  // cells). Always populated by the async runners; cheap integer counters.
  obs::MetricsRegistry metrics;
};

// Optional per-run observability hooks threaded through the run entry
// points (page loads here, scenarios in perf.h): `trace` receives the run's structured events (null == tracing
// disabled, zero formatting cost), `metrics` receives per-run totals under
// `prefix` (e.g. "quic.packets_sent").
struct RunObserver {
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::string prefix;
};

// Folds one finished run's simulator and link work (deterministic
// virtual-time counts) into `profiler`; null is a no-op. Every harness run
// does; benches that build a testbed by hand call it once per run.
void fold_profile_counters(obs::Profiler* profiler, Testbed& tb);

// Runs a single QUIC page load in a fresh testbed; returns PLT seconds or
// nullopt on timeout. The token cache persists across calls via `tokens`.
std::optional<double> run_quic_page_load(const Scenario& scenario,
                                         const Workload& workload,
                                         const CompareOptions& opts,
                                         quic::TokenCache& tokens,
                                         const RunObserver* observer = nullptr);
std::optional<double> run_tcp_page_load(const Scenario& scenario,
                                        const Workload& workload,
                                        const CompareOptions& opts,
                                        const RunObserver* observer = nullptr);

// One Table 6 run: a one-hour video at `quality` over `protocol`, watched
// for 60 s in a fresh testbed from a cold start (no 0-RTT token). Folds the
// run's work counters into `profiler` (null: none).
video::QoeMetrics run_video(const Scenario& scenario,
                            const video::VideoQuality& quality,
                            Protocol protocol,
                            obs::Profiler* profiler = nullptr);

// Full comparison cell: rounds x (QUIC, TCP) with paired seeds + the t-test.
CellResult compare_plt(const Scenario& scenario, const Workload& workload,
                       const CompareOptions& opts);

// QUIC-vs-QUIC comparison (0-RTT study, proxy study, MACW study): runs the
// same workload under two QUIC configurations.
CellResult compare_quic_pair(const Scenario& scenario, const Workload& workload,
                             const CompareOptions& a_opts,
                             const CompareOptions& b_opts);

// --- Parallel sweeps (SweepRunner) ---------------------------------------
//
// The async variants enqueue one job per paired round onto `runner` plus an
// explicit job-graph edge for the 0-RTT warm fetch: the warm job fills a
// token cache, and every measured round starts from its own copy of the
// post-warm cache, so rounds are independent and the folded CellResult is
// byte-identical for any worker count (LL_JOBS=1 included). A commit job,
// gated on all of the cell's rounds, folds the per-round PLTs in round
// order into *out and ticks `progress` (may be nullptr). `out` and
// `progress` must outlive runner.wait_all(). The returned ticket is the
// commit job, usable as a dependency for downstream work.
SweepRunner::Ticket compare_plt_async(SweepRunner& runner,
                                      const Scenario& scenario,
                                      const Workload& workload,
                                      const CompareOptions& opts,
                                      CellResult* out,
                                      ProgressReporter* progress = nullptr);
SweepRunner::Ticket compare_quic_pair_async(SweepRunner& runner,
                                            const Scenario& scenario,
                                            const Workload& workload,
                                            const CompareOptions& a_opts,
                                            const CompareOptions& b_opts,
                                            CellResult* out,
                                            ProgressReporter* progress =
                                                nullptr);

// Runs a whole QUIC-vs-TCP grid (rows = scenarios, cols = workloads) on
// `runner`: every (row, col, round) is an independent job, results land in
// row-major submission order. This is what the bench heatmaps are built on.
std::vector<std::vector<CellResult>> run_plt_grid(
    SweepRunner& runner, const std::vector<Scenario>& rows,
    const std::vector<Workload>& cols, const CompareOptions& opts,
    ProgressReporter* progress = nullptr);

}  // namespace longlook::harness
