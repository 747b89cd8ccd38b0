// The benchmark's workloads and the bookkeeping shared by the untraced and
// the traced run: per-run virtual-time results, exact per-layer counts,
// output checks and the simulation digest.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/compare.h"
#include "workload/scenario.h"

namespace perfbench {

// One named workload, generated from the seed alone. Either a page-load
// grid (rows x cols cells, run with harness::run_plt_grid) or one
// scenario-DSL cell (harness::compare_scenario_async).
struct Workload {
  std::string name;
  std::vector<longlook::harness::Scenario> rows;
  std::vector<longlook::harness::Workload> cols;
  std::optional<longlook::workload::ScenarioSpec> spec;

  bool is_grid() const { return !spec.has_value(); }
  std::size_t cell_count() const {
    return is_grid() ? rows.size() * cols.size() : 1;
  }
  // Row-major cell index -> its network scenario.
  const longlook::harness::Scenario& cell_scenario(std::size_t cell) const {
    return rows[is_grid() ? cell / cols.size() : 0];
  }
  // Application bytes one complete run moves, up plus down (request
  // headers excluded).
  std::uint64_t app_bytes_per_run(std::size_t cell) const;
  // Transactions one complete run performs (page objects or DSL
  // transactions).
  std::uint64_t transactions_per_run(std::size_t cell) const;
};

// web_grid, bulk_bdp or rpc_churn; nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed);

// Host-independent outcome of one iteration (one paired round of
// every cell), however it was executed.
struct Outcome {
  struct Cell {
    std::vector<double> quic_s;  // completed runs' virtual durations
    std::vector<double> tcp_s;
  };
  std::vector<Cell> cells;
  // Exact per-layer counts under their reported names (sim.events, ...).
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t attempted = 0;  // measured simulated runs
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few reasons, for the log
  double app_bytes = 0;               // over completed runs
  double sim_seconds = 0;             // summed virtual run durations

  void fail(std::uint64_t runs, const std::string& why);
};

// Every count name an Outcome carries, in report order.
const std::vector<std::string>& count_names();

// Timeouts and unpaired rounds: fills attempted/failed, app bytes and
// simulated seconds from the completed durations. `rounds` runs per stack
// per cell were attempted.
void check_runs(const Workload& w, int rounds, Outcome& out);

// FNV-1a over the per-run virtual durations (cell order, QUIC then TCP)
// and the exact counts. `lossy_rows_only` hashes only the durations of
// cells whose scenario has random loss, and no counts.
std::uint64_t sim_digest(const Workload& w, const Outcome& o,
                         bool lossy_rows_only = false);

}  // namespace perfbench
