// The harness's one run path and one paired-cell submitter, shared by the
// page-load entry points (compare.cc) and the scenario-DSL entry points
// (perf.cc). Internal to the harness — benches and tests use the public
// entry points in compare.h / perf.h.
//
// Every run drives a workload::ScenarioRunner: a page load is the one-entry
// spec workload::page_scenario({N, B}), i.e. `*1:0:-:page=NxB;` (its PLTs
// and work counters are pinned in tests/test_workload.cc).
//
// The determinism contract lives in submit_cell: round jobs write disjoint
// scratch slots, the warm job runs strictly before every round (job-graph
// edge), and the commit job folds slots in round order — so a folded
// CellResult and every artifact file name are byte-identical at any
// LL_JOBS.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "harness/compare.h"
#include "harness/perf.h"
#include "http/object_service.h"

namespace longlook::harness::detail {

// What differs between the two stacks in a run; everything else is shared.
struct QuicStack {
  using Server = http::QuicObjectServer;
  using Session = http::QuicClientSession;
  static constexpr const char* kName = "quic";
  static constexpr const char* kTimer = "run:quic";
  static constexpr Port kPort = kQuicPort;
  static constexpr auto kConfig = &CompareOptions::quic;
  static constexpr auto kConnectToMid = &CompareOptions::quic_connect_to_mid;
  static constexpr auto kConnectPort = &CompareOptions::quic_connect_port;
  static constexpr bool kTakesTokens = true;  // 0-RTT token cache
  // Client and server connection counters, under prefix `p`.
  static void fold(obs::MetricsRegistry& m, const std::string& p,
                   Session& session, Server& server);
};

struct TcpStack {
  using Server = http::TcpObjectServer;
  using Session = http::H2ClientSession;
  static constexpr const char* kName = "tcp";
  static constexpr const char* kTimer = "run:tcp";
  static constexpr Port kPort = kTcpPort;
  static constexpr auto kConfig = &CompareOptions::tcp;
  static constexpr auto kConnectToMid = &CompareOptions::tcp_connect_to_mid;
  static constexpr auto kConnectPort = &CompareOptions::tcp_connect_port;
  static constexpr bool kTakesTokens = false;
  static void fold(obs::MetricsRegistry& m, const std::string& p,
                   Session& session, Server& server);
};

// Runs `spec` over stack S in a fresh testbed; returns its stats or
// nullopt on timeout. `page` marks a harness page load: run:start then
// carries the Workload's shape and the scn_* totals are not folded.
// `tokens` is the QUIC token cache (unused by TCP). Instantiated for
// QuicStack and TcpStack in compare.cc.
template <typename S>
std::optional<ScenarioRunStats> run_stack(const Scenario& scenario,
                                          const workload::ScenarioSpec& spec,
                                          const Workload* page,
                                          const CompareOptions& opts,
                                          quic::TokenCache* tokens,
                                          const RunObserver* observer);

// One side of a paired cell. Side 0 plays the QUIC role and supplies the
// cell's rounds, trace dir and label; a QUIC side warms its own token cache
// (side 0 at seed+7919, side 1 at seed+104729) when opts.warm_zero_rtt.
struct CellSide {
  bool quic = true;  // QUIC, or TCP + TLS + HTTP/2
  CompareOptions opts;
  std::string suffix;  // artifact `<label>_r<round>_<suffix>.jsonl`
  std::string prefix;  // metric key prefix
};

// Submits one paired cell: the warm job, one job per round (side 0 then
// side 1 on the same round seed), and the commit job that folds the rounds
// in order into *out and ticks `progress` (may be nullptr). `page` as in
// run_stack. Returns the commit job's ticket.
SweepRunner::Ticket submit_cell(SweepRunner& runner, const Scenario& scenario,
                                workload::ScenarioSpec spec,
                                std::optional<Workload> page,
                                std::array<CellSide, 2> sides, CellResult* out,
                                ProgressReporter* progress);

// Trace epilogue: plt_ns on completion, timed_out otherwise.
void emit_run_summary(obs::TraceSink* sink, bool done, Duration plt,
                      TimePoint now);

// Registers the testbed's access-link queues (dirs "up" / "down") and the
// client / server hosts with the sampler. Registration order is fixed, so
// `ts:` record order within a tick is too.
void register_testbed_probes(obs::StateSampler& sampler, Testbed& tb);

}  // namespace longlook::harness::detail
