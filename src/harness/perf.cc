#include "harness/perf.h"

#include "harness/compare_detail.h"

namespace longlook::harness {

std::optional<ScenarioRunStats> run_quic_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, quic::TokenCache& tokens,
    const RunObserver* observer) {
  return detail::run_stack<detail::QuicStack>(scenario, spec, nullptr, opts,
                                              &tokens, observer);
}

std::optional<ScenarioRunStats> run_tcp_scenario(
    const Scenario& scenario, const workload::ScenarioSpec& spec,
    const CompareOptions& opts, const RunObserver* observer) {
  return detail::run_stack<detail::TcpStack>(scenario, spec, nullptr, opts,
                                             nullptr, observer);
}

SweepRunner::Ticket compare_scenario_async(
    SweepRunner& runner, const Scenario& scenario,
    const workload::ScenarioSpec& spec, const CompareOptions& opts,
    CellResult* out, ProgressReporter* progress) {
  return detail::submit_cell(runner, scenario, spec, std::nullopt,
                             {{{true, opts, "quic", "quic."},
                               {false, opts, "tcp", "tcp."}}},
                             out, progress);
}

CellResult compare_scenario(const Scenario& scenario,
                            const workload::ScenarioSpec& spec,
                            const CompareOptions& opts) {
  SweepRunner runner;
  CellResult out;
  compare_scenario_async(runner, scenario, spec, opts, &out);
  runner.wait_all();
  return out;
}

}  // namespace longlook::harness
