// Unit/integration tests: testbed topology, the paired comparison runner
// (statistics discipline), the per-kind cell conventions (artifact names,
// run:start fields, metric keys), heatmap rendering, and the fairness
// runner.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "harness/compare.h"
#include "harness/fairness.h"
#include "harness/perf.h"
#include "harness/report.h"
#include "harness/testbed.h"
#include "workload/executor.h"
#include "workload/scenario.h"

namespace longlook::harness {
namespace {

TEST(Testbed, BaseRttIsAbout36Ms) {
  Scenario s;
  s.seed = 3;
  Testbed tb(s);
  // Round-trip a QUIC handshake probe and read the server's RTT estimate.
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, {});
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(), kQuicPort, {},
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({1, 100 * 1024}));
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(10)));
  auto* conn = server.server().latest_connection();
  ASSERT_NE(conn, nullptr);
  // 36 ms base path, +-4% ambient perturbation + processing.
  EXPECT_NEAR(to_millis(conn->rtt().min_rtt()), 36.0, 4.0);
}

TEST(Testbed, ExtraRttIsAddedToPath) {
  Scenario s;
  s.extra_rtt = milliseconds(100);
  Testbed tb(s);
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, {});
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(), kQuicPort, {},
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({1, 10 * 1024}));
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(10)));
  auto* conn = server.server().latest_connection();
  ASSERT_NE(conn, nullptr);
  EXPECT_NEAR(to_millis(conn->rtt().min_rtt()), 136.0, 8.0);
}

TEST(Testbed, SameSeedReproducesIdenticalRuns) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 77;
  CompareOptions opts;
  quic::TokenCache t1;
  quic::TokenCache t2;
  const auto a = run_quic_page_load(s, {1, 512 * 1024}, opts, t1);
  const auto b = run_quic_page_load(s, {1, 512 * 1024}, opts, t2);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(*a, *b);  // full determinism per seed
}

TEST(Testbed, DifferentSeedsVary) {
  Scenario a;
  a.rate_bps = 10'000'000;
  a.seed = 1;
  Scenario b = a;
  b.seed = 2;
  CompareOptions opts;
  quic::TokenCache t1;
  quic::TokenCache t2;
  const auto pa = run_quic_page_load(a, {1, 512 * 1024}, opts, t1);
  const auto pb = run_quic_page_load(b, {1, 512 * 1024}, opts, t2);
  ASSERT_TRUE(pa && pb);
  EXPECT_NE(*pa, *pb);  // ambient noise differs per round
}

TEST(Compare, ProducesRequestedRounds) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions opts;
  opts.rounds = 4;
  const CellResult cell = compare_plt(s, {1, 50 * 1024}, opts);
  EXPECT_EQ(cell.quic_plt_s.size(), 4u);
  EXPECT_EQ(cell.tcp_plt_s.size(), 4u);
  EXPECT_TRUE(cell.all_complete);
  EXPECT_GT(cell.tcp_mean_s, 0);
  EXPECT_GT(cell.quic_mean_s, 0);
}

TEST(Compare, SmallObjectCellIsSignificantlyQuicFavoured) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions opts;
  opts.rounds = 5;
  const CellResult cell = compare_plt(s, {1, 10 * 1024}, opts);
  // 0-RTT vs 3-RTT setup dominates: must be large, positive, significant.
  EXPECT_TRUE(cell.significant);
  EXPECT_GT(cell.pct_diff, 40.0);
}

TEST(Compare, QuicPairWithIdenticalConfigsInsignificant) {
  Scenario s;
  s.rate_bps = 10'000'000;
  CompareOptions a;
  a.rounds = 5;
  CompareOptions b = a;
  const CellResult cell = compare_quic_pair(s, {1, 200 * 1024}, a, b);
  // Same protocol, same config: only ambient noise separates the samples.
  EXPECT_FALSE(cell.significant);
  EXPECT_LT(std::abs(cell.pct_diff), 10.0);
}

// --- Cell-kind conventions ---------------------------------------------------
//
// The three paired-cell kinds (page load, QUIC pair, scenario) differ only
// in what they name and fold: artifact suffixes, metric prefixes, run:start
// fields and the scn_* totals. Per-cell metrics land in every bench's
// deterministic section, so these keys are part of the baselines.

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

// Artifact file name -> contents.
std::map<std::string, std::string> read_artifacts(const fs::path& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    out[entry.path().filename().string()] = text.str();
  }
  return out;
}

// An artifact's first record, which must be its run:start.
std::string run_start_line(const std::string& artifact) {
  const std::string line = artifact.substr(0, artifact.find('\n'));
  EXPECT_NE(line.find("\"ev\":\"run:start\""), std::string::npos) << line;
  return line;
}

// One `c<id>_<label>_r<round>_<side>.jsonl` artifact per (round, side), and
// nothing else.
void expect_artifact_names(const std::map<std::string, std::string>& files,
                           const std::string& label, int rounds,
                           const std::vector<std::string>& sides) {
  const std::string infix = "_" + label + "_";
  const std::string ext = ".jsonl";
  std::set<std::string> got;
  for (const auto& [name, content] : files) {
    const std::size_t at = name.find(infix);
    ASSERT_NE(at, std::string::npos) << name;
    ASSERT_TRUE(name.ends_with(ext)) << name;
    ASSERT_GT(at, 1u) << name;
    EXPECT_EQ(name[0], 'c') << name;
    EXPECT_EQ(name.find_first_not_of("0123456789", 1), at) << name;
    const std::size_t tail = at + infix.size();
    got.insert(name.substr(tail, name.size() - ext.size() - tail));
  }
  std::set<std::string> want;
  for (int r = 0; r < rounds; ++r) {
    for (const std::string& side : sides) {
      want.insert("r" + std::to_string(r) + "_" + side);
    }
  }
  EXPECT_EQ(got, want);
}

// Every counter and histogram key starts with one of `prefixes`, and every
// prefix folded at least its per-run totals.
void expect_metric_prefixes(const obs::MetricsRegistry& m,
                            const std::vector<std::string>& prefixes) {
  auto prefixed = [&](const std::string& key) {
    for (const std::string& p : prefixes) {
      if (key.rfind(p, 0) == 0) return true;
    }
    return false;
  };
  for (const auto& [key, value] : m.counters()) {
    EXPECT_TRUE(prefixed(key)) << key;
  }
  for (const auto& [key, hist] : m.histograms()) {
    EXPECT_TRUE(prefixed(key)) << key;
  }
  for (const std::string& p : prefixes) {
    EXPECT_GT(m.counter(p + "runs"), 0u) << p;
    EXPECT_GT(m.histogram(p + "plt_us").count(), 0u) << p;
  }
}

bool has_scenario_keys(const obs::MetricsRegistry& m) {
  for (const auto& [key, value] : m.counters()) {
    if (key.find("scn_") != std::string::npos) return true;
  }
  return false;
}

Scenario cell_kind_scenario() {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.seed = 21;
  return s;
}

CompareOptions cell_kind_opts(const fs::path& dir, const std::string& label) {
  CompareOptions opts;
  opts.rounds = 2;
  opts.trace_dir = dir.string();
  opts.trace_label = label;
  return opts;
}

TEST(CellKinds, PairCellWritesAAndBArtifactsAndFoldsQuicAB) {
  const fs::path dir = fresh_dir("ll_cell_kind_pair");
  const CompareOptions a = cell_kind_opts(dir, "pair");
  CompareOptions b = a;
  b.warm_zero_rtt = false;
  const CellResult cell =
      compare_quic_pair(cell_kind_scenario(), {3, 5000}, a, b);
  ASSERT_TRUE(cell.all_complete);
  EXPECT_EQ(cell.quic_plt_s.size(), 2u);
  EXPECT_EQ(cell.tcp_plt_s.size(), 2u);

  const auto files = read_artifacts(dir);
  expect_artifact_names(files, "pair", 2, {"a", "b"});
  for (const auto& [name, content] : files) {
    const std::string start = run_start_line(content);
    EXPECT_NE(start.find("\"proto\":\"quic\""), std::string::npos) << name;
    EXPECT_NE(start.find("\"objects\":3,\"object_bytes\":5000"),
              std::string::npos)
        << name;
    EXPECT_EQ(start.find("perf_scenario"), std::string::npos) << name;
  }
  expect_metric_prefixes(cell.metrics, {"quic_a.", "quic_b."});
  EXPECT_EQ(cell.metrics.counter("quic_a.runs"), 2u);
  EXPECT_EQ(cell.metrics.counter("quic_b.runs"), 2u);
  EXPECT_FALSE(has_scenario_keys(cell.metrics));
  // b skipped its warm fetch: every b round pays the full handshake.
  EXPECT_GT(cell.metrics.counter("quic_b.handshake_rtts"),
            cell.metrics.counter("quic_a.handshake_rtts"));
  fs::remove_all(dir);
}

TEST(CellKinds, ScenarioCellWritesQuicTcpArtifactsAndFoldsScenarioTotals) {
  const fs::path dir = fresh_dir("ll_cell_kind_scenario");
  const workload::ParseResult parsed =
      workload::parse_scenario("*2:0:-:64:2048;*1:4:0:0:1000;");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const workload::ScenarioSpec& spec = *parsed.spec;
  const CellResult cell = compare_scenario(
      cell_kind_scenario(), spec, cell_kind_opts(dir, "scn"));
  ASSERT_TRUE(cell.all_complete);

  const auto files = read_artifacts(dir);
  expect_artifact_names(files, "scn", 2, {"quic", "tcp"});
  for (const auto& [name, content] : files) {
    const std::string start = run_start_line(content);
    EXPECT_NE(start.find("\"objects\":3,\"object_bytes\":5096,"
                         "\"perf_scenario\":\"" + spec.format() + "\""),
              std::string::npos)
        << start;
  }
  expect_metric_prefixes(cell.metrics, {"quic.", "tcp."});
  for (const std::string p : {"quic.", "tcp."}) {
    EXPECT_EQ(cell.metrics.counter(p + "scn_transactions"), 2u * 3u) << p;
    EXPECT_EQ(cell.metrics.counter(p + "scn_upload_bytes"), 2u * 128u) << p;
    EXPECT_EQ(cell.metrics.counter(p + "scn_download_bytes"), 2u * 5096u)
        << p;
  }
  fs::remove_all(dir);
}

TEST(CellKinds, PageLoadCellCarriesWorkloadFieldsAndNoScenarioKeys) {
  const fs::path dir = fresh_dir("ll_cell_kind_page");
  const CellResult cell = compare_plt(cell_kind_scenario(), {3, 5000},
                                      cell_kind_opts(dir, "page"));
  ASSERT_TRUE(cell.all_complete);

  const auto files = read_artifacts(dir);
  expect_artifact_names(files, "page", 2, {"quic", "tcp"});
  for (const auto& [name, content] : files) {
    const std::string start = run_start_line(content);
    const bool quic = name.find("_quic.jsonl") != std::string::npos;
    EXPECT_NE(start.find(quic ? "\"proto\":\"quic\"" : "\"proto\":\"tcp\""),
              std::string::npos)
        << name;
    // The Workload's shape, not the page's totals (3 transactions, 15000
    // bytes), and no DSL string.
    EXPECT_NE(start.find("\"objects\":3,\"object_bytes\":5000}"),
              std::string::npos)
        << start;
    EXPECT_EQ(start.find("perf_scenario"), std::string::npos) << name;
  }
  expect_metric_prefixes(cell.metrics, {"quic.", "tcp."});
  EXPECT_FALSE(has_scenario_keys(cell.metrics));
  fs::remove_all(dir);
}

TEST(Report, HeatmapRendersSignificanceMarkers) {
  std::ostringstream os;
  print_heatmap(os, "demo", {"a", "b"}, {"r1"},
                {{HeatmapCell{12.34, true, true},
                  HeatmapCell{-5.0, false, true}}});
  const std::string out = os.str();
  EXPECT_NE(out.find("+12.3"), std::string::npos);
  EXPECT_NE(out.find("·"), std::string::npos);  // insignificant cell
  EXPECT_NE(out.find("demo"), std::string::npos);
}

TEST(Report, TableAlignsColumns) {
  std::ostringstream os;
  print_table(os, "t", {"col", "value"}, {{"row-with-long-name", "1.5"}});
  EXPECT_NE(os.str().find("row-with-long-name"), std::string::npos);
}

TEST(Fairness, SameProtocolPairsShareFairly) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.buffer_bytes = 30 * 1024;
  s.bucket_bytes = 8 * 1024;
  s.seed = 5;
  FairnessConfig cfg;
  cfg.quic_flows = 2;
  cfg.tcp_flows = 0;
  cfg.duration = seconds(20);
  cfg.transfer_bytes = 128 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  ASSERT_EQ(reports.size(), 2u);
  const double ratio = reports[0].avg_mbps / reports[1].avg_mbps;
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(Fairness, QuicBeatsTcpOnSharedBottleneck) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.buffer_bytes = 30 * 1024;
  s.bucket_bytes = 8 * 1024;
  s.seed = 6;
  FairnessConfig cfg;
  cfg.duration = seconds(20);
  cfg.transfer_bytes = 128 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  ASSERT_EQ(reports.size(), 2u);
  // The paper's headline unfairness: QUIC takes well over half.
  EXPECT_GT(reports[0].avg_mbps, reports[1].avg_mbps * 1.5);
  // And the link is actually being used.
  EXPECT_GT(reports[0].avg_mbps + reports[1].avg_mbps, 3.0);
}

TEST(Fairness, TimelinesAreSampled) {
  Scenario s;
  s.rate_bps = 5'000'000;
  FairnessConfig cfg;
  cfg.duration = seconds(5);
  cfg.sample_interval = milliseconds(500);
  cfg.transfer_bytes = 64 * 1024 * 1024;
  const auto reports = run_fairness(s, cfg);
  for (const auto& r : reports) {
    EXPECT_GE(r.timeline.size(), 9u);
    EXPECT_LE(r.timeline.size(), 11u);
  }
}

TEST(Testbed, CellularScenarioUsesProfile) {
  Scenario s;
  s.cellular = verizon_lte();
  s.seed = 9;
  CompareOptions opts;
  quic::TokenCache tokens;
  const auto plt = run_quic_page_load(s, {1, 100 * 1024}, opts, tokens);
  ASSERT_TRUE(plt.has_value());
  // 4 Mbps downlink + 60 ms RTT: the 100 KB page takes a fraction of a
  // second but clearly longer than the wired path would.
  EXPECT_GT(*plt, 0.2);
  EXPECT_LT(*plt, 5.0);
}

}  // namespace
}  // namespace longlook::harness
