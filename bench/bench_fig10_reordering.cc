// Fig. 10 — QUIC vs TCP downloading a 10 MB page over a 112 ms RTT path
// with 10 ms jitter (netem-style jitter => packet reordering). Sweeping
// QUIC's fast-retransmit NACK threshold shows that larger thresholds let
// QUIC cope with reordering; TCP's DSACK-adaptive dupthresh copes natively.
#include "bench_common.h"

namespace {
using namespace longlook;
using namespace longlook::harness;

Scenario reorder_scenario(std::uint64_t seed) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);  // 36 + 76 = 112 ms RTT
  s.jitter = milliseconds(10);
  s.seed = seed;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  longlook::bench::parse_args(argc, argv);
  longlook::bench::banner(
      "Packet reordering (112 ms RTT, 10 ms jitter), 10 MB download: "
      "NACK-threshold sweep",
      "Fig. 10 (Sec. 5.2)");

  const Workload page{1, 10 * 1024 * 1024};
  const int n = longlook::bench::rounds();

  std::vector<std::vector<std::string>> rows;

  // TCP baseline (DSACK-adaptive reordering robustness).
  {
    std::vector<double> plts;
    CompareOptions opts;
    longlook::bench::apply(opts);
    for (int r = 0; r < n; ++r) {
      if (auto plt = run_tcp_page_load(reorder_scenario(300 + r), page, opts)) {
        plts.push_back(*plt);
      }
    }
    const auto s = stats::summarize(plts);
    longlook::bench::context().record_scalar(
        "Fig. 10: PLT by loss-detection policy",
        "TCP (DSACK adaptive) mean_us", std::llround(s.mean * 1e6));
    rows.push_back({"TCP (DSACK adaptive)", format_fixed(s.mean, 2),
                    format_fixed(s.stddev, 2), "-", "-"});
  }

  // QUIC with increasing NACK thresholds, plus time- and adaptive modes.
  struct Variant {
    std::string label;
    quic::LossDetectionMode mode;
    std::size_t threshold = 0;
  };
  const std::vector<Variant> variants = {
      {"QUIC NACK=3 (default)", quic::LossDetectionMode::kFixedNack, 3},
      {"QUIC NACK=6", quic::LossDetectionMode::kFixedNack, 6},
      {"QUIC NACK=12", quic::LossDetectionMode::kFixedNack, 12},
      {"QUIC NACK=24", quic::LossDetectionMode::kFixedNack, 24},
      {"QUIC adaptive (RR-TCP)", quic::LossDetectionMode::kAdaptiveNack, 3},
      {"QUIC time-threshold", quic::LossDetectionMode::kTimeThreshold, 3},
  };
  for (const Variant& v : variants) {
    CompareOptions opts;
    longlook::bench::apply(opts);
    opts.quic.loss_mode = v.mode;
    opts.quic.nack_threshold = v.threshold;
    std::vector<double> plts;
    obs::MetricsRegistry metrics;
    const RunObserver observer{nullptr, &metrics, "quic."};
    quic::TokenCache tokens;
    // Warm the token cache once, then measure.
    (void)run_quic_page_load(reorder_scenario(299), {1, 1024}, opts, tokens);
    for (int r = 0; r < n; ++r) {
      if (auto plt = run_quic_page_load(
              reorder_scenario(300 + static_cast<std::uint64_t>(r)), page,
              opts, tokens, &observer)) {
        plts.push_back(*plt);
      }
      std::fputc('.', stderr);
    }
    // Losses as the server (the download's sender) declared them.
    const std::uint64_t losses = metrics.counter("quic.server_declared_lost");
    const std::uint64_t spurious =
        metrics.counter("quic.server_spurious_losses");
    const auto s = stats::summarize(plts);
    longlook::bench::context().record_scalar(
        "Fig. 10: PLT by loss-detection policy", v.label + " mean_us",
        std::llround(s.mean * 1e6));
    rows.push_back({v.label, format_fixed(s.mean, 2),
                    format_fixed(s.stddev, 2),
                    std::to_string(losses / static_cast<std::uint64_t>(n)),
                    std::to_string(spurious / static_cast<std::uint64_t>(n))});
  }
  std::fputc('\n', stderr);

  print_table(std::cout,
              "Fig. 10: 10MB PLT under reordering vs loss-detection policy",
              {"Variant", "PLT mean (s)", "std", "losses/run",
               "spurious/run"},
              rows);
  std::printf(
      "\nPaper's finding: with the default NACK threshold of 3, reordered\n"
      "packets masquerade as losses and QUIC performs far worse than TCP;\n"
      "raising the threshold (or adopting DSACK-style adaptation / time-\n"
      "based detection, which the QUIC team was experimenting with)\n"
      "restores performance.\n");
  return longlook::bench::finish();
}
