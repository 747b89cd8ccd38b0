// Fig. 3 — Inferred state machines for QUIC's Cubic congestion control (a)
// and the experimental BBR implementation (b), generated automatically from
// execution traces across many experiment configurations (the paper's
// Synoptic step, Sec. 5.1).
#include "bench_common.h"

#include "http/object_service.h"
#include "http/quic_session.h"
#include "smi/inference.h"
#include "workload/executor.h"

namespace {

using namespace longlook;
using namespace longlook::harness;

// Runs one transfer and feeds the server's CC trace into the inference.
void trace_run(smi::StateMachineInference& cubic_inf,
               smi::StateMachineInference* bbr_inf, const Scenario& s,
               std::size_t objects, std::size_t bytes,
               quic::CcAlgorithm algo) {
  Testbed tb(s);
  quic::QuicConfig cfg;
  cfg.cc_algorithm = algo;
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, cfg);
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(), kQuicPort, cfg,
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({objects, bytes}));
  loader.start();
  tb.run_until([&] { return loader.finished(); }, seconds(300));
  fold_profile_counters(longlook::bench::context().profiler(), tb);
  auto* conn = server.server().latest_connection();
  if (conn == nullptr) return;
  if (algo == quic::CcAlgorithm::kCubic) {
    cubic_inf.add_trace(smi::trace_from_tracker(
        conn->send_algorithm().tracker(), TimePoint{}, tb.sim().now()));
  } else if (bbr_inf != nullptr && conn->bbr() != nullptr) {
    bbr_inf->add_trace(
        smi::trace_from_bbr(conn->bbr()->bbr_trace(), TimePoint{},
                            tb.sim().now()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "Automatic state-machine inference from QUIC execution traces",
      "Fig. 3a (Cubic) and Fig. 3b (BBR), Sec. 5.1");

  smi::StateMachineInference cubic_inf;
  smi::StateMachineInference bbr_inf;

  // Traces across a spread of experiment configurations (clean, lossy,
  // reordered, constrained devices) — like the paper's "all of our
  // experiment configurations".
  std::vector<Scenario> scenarios;
  {
    Scenario clean;
    clean.rate_bps = 50'000'000;
    scenarios.push_back(clean);
    Scenario lossy;
    lossy.rate_bps = 10'000'000;
    lossy.loss_rate = 0.01;
    scenarios.push_back(lossy);
    Scenario reordered;
    reordered.rate_bps = 20'000'000;
    reordered.extra_rtt = milliseconds(76);
    reordered.jitter = milliseconds(10);
    scenarios.push_back(reordered);
    Scenario slow_device;
    slow_device.rate_bps = 50'000'000;
    slow_device.device = motog_profile();
    scenarios.push_back(slow_device);
    Scenario blackoutish;
    blackoutish.rate_bps = 5'000'000;
    blackoutish.loss_rate = 0.05;
    scenarios.push_back(blackoutish);
  }
  int seed = 42;
  for (const Scenario& base : scenarios) {
    Scenario s = base;
    s.seed = static_cast<std::uint64_t>(seed++);
    trace_run(cubic_inf, nullptr, s, 1, 5 * 1024 * 1024,
              quic::CcAlgorithm::kCubic);
    trace_run(cubic_inf, nullptr, s, 100, 10 * 1024,
              quic::CcAlgorithm::kCubic);
    trace_run(cubic_inf, &bbr_inf, s, 1, 20 * 1024 * 1024,
              quic::CcAlgorithm::kBbr);
  }

  std::printf("\n--- Fig. 3a: inferred QUIC Cubic CC state machine (%zu traces) ---\n",
              cubic_inf.trace_count());
  std::cout << cubic_inf.to_dot("quic_cubic_cc");
  std::printf("Observed states and visit counts:\n");
  for (const auto& st : cubic_inf.states()) {
    std::printf("  %-26s visits=%-6llu time=%.1f%%\n", st.c_str(),
                static_cast<unsigned long long>(cubic_inf.visits(st)),
                cubic_inf.time_fraction(st) * 100);
  }
  std::printf("Mined invariants (Synoptic-style):\n");
  std::printf("  Init always precedes SlowStart:            %s\n",
              cubic_inf.always_precedes("Init", "SlowStart") ? "yes" : "NO");
  std::printf("  SlowStart always precedes CongestionAvoidance: %s\n",
              cubic_inf.always_precedes("SlowStart", "CongestionAvoidance")
                  ? "yes"
                  : "NO");
  std::printf("  Nothing transitions back to Init:           %s\n",
              cubic_inf.never_followed_by("SlowStart", "Init") ? "yes" : "NO");

  std::printf("\n--- Fig. 3b: inferred BBR state machine (%zu traces) ---\n",
              bbr_inf.trace_count());
  std::cout << bbr_inf.to_dot("quic_bbr");
  for (const auto& st : bbr_inf.states()) {
    std::printf("  %-10s visits=%-6llu time=%.1f%%\n", st.c_str(),
                static_cast<unsigned long long>(bbr_inf.visits(st)),
                bbr_inf.time_fraction(st) * 100);
  }
  std::printf("  Startup always precedes Drain:   %s\n",
              bbr_inf.always_precedes("Startup", "Drain") ? "yes" : "NO");
  std::printf("  Drain always precedes ProbeBW:   %s\n",
              bbr_inf.always_precedes("Drain", "ProbeBW") ? "yes" : "NO");
  auto& ctx = longlook::bench::context();
  ctx.record_scalar("State-machine inference", "cubic_traces",
                    static_cast<std::int64_t>(cubic_inf.trace_count()));
  ctx.record_scalar("State-machine inference", "cubic_states",
                    static_cast<std::int64_t>(cubic_inf.states().size()));
  ctx.record_scalar("State-machine inference", "bbr_traces",
                    static_cast<std::int64_t>(bbr_inf.trace_count()));
  ctx.record_scalar("State-machine inference", "bbr_states",
                    static_cast<std::int64_t>(bbr_inf.states().size()));
  return longlook::bench::finish();
}
