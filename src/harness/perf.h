// Scenario-DSL perf comparison path: runs a parsed workload::ScenarioSpec
// (quicperf-style transactions, dependent streams, uploads, page graphs)
// over both stacks with the same paired-seed, warm-0-RTT, Welch-tested cell
// methodology as the page-load path in compare.h — through the same run body
// and cell submitter (compare_detail.h). A workload here is a
// string, not a translation unit — bench_perf feeds `--scenario` strings
// straight into these entry points.
#pragma once

#include <optional>

#include "harness/compare.h"
#include "workload/executor.h"
#include "workload/scenario.h"

namespace longlook::harness {

// Virtual-time result of one completed scenario run.
struct ScenarioRunStats {
  double duration_s = 0;  // connect initiation to last transaction's fin
  std::uint64_t transactions = 0;
  std::uint64_t upload_bytes = 0;    // request body bytes (headers excluded)
  std::uint64_t download_bytes = 0;  // response bytes received
};

// Runs one scenario in a fresh testbed; returns stats or nullopt on
// timeout. The token cache persists across calls via `tokens`, exactly like
// run_quic_page_load, so 0-RTT scenarios warm the same way.
std::optional<ScenarioRunStats> run_quic_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, quic::TokenCache& tokens,
    const RunObserver* observer = nullptr);
std::optional<ScenarioRunStats> run_tcp_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, const RunObserver* observer = nullptr);

// Full QUIC-vs-TCP cell over one scenario: rounds x (QUIC, TCP) with paired
// seeds and the t-test. The CellResult's "plt" vectors hold scenario
// completion times in seconds; metrics carry the scn_* transaction/byte
// totals alongside the usual transport counters. Same job-graph determinism
// contract as compare_plt_async (byte-identical at any LL_JOBS).
SweepRunner::Ticket compare_scenario_async(
    SweepRunner& runner, const Scenario& scenario,
    const workload::ScenarioSpec& spec, const CompareOptions& opts,
    CellResult* out, ProgressReporter* progress = nullptr);

CellResult compare_scenario(const Scenario& scenario,
                            const workload::ScenarioSpec& spec,
                            const CompareOptions& opts);

}  // namespace longlook::harness
