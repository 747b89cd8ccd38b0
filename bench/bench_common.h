// Shared helpers for the reproduction benches.
//
// Every bench regenerates one table or figure from the paper and prints the
// same rows/series the paper reports. Rounds default to the paper's >=10 but
// can be reduced for quick runs via LL_BENCH_ROUNDS. Sweeps run on a
// SweepRunner worker pool (LL_JOBS workers, default: all cores) with output
// byte-identical to a serial run — see README "Parallel sweeps".
//
// Machine-readable results: with `--json-out <path>` (or LL_BENCH_JSON) a
// bench additionally writes BENCH_<name>.json holding a *deterministic*
// section (per-cell means, PLT distributions, folded metrics — byte-identical
// at any LL_JOBS, integer-only) and a *profile* section (wall time,
// events/sec — free to vary run to run). The profile data comes from an
// obs::Profiler that is only instantiated when JSON output is on, so plain
// runs keep the zero-cost null path and byte-identical stdout. See README
// "Machine-readable bench results" and tools/bench_report.py.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "harness/compare.h"
#include "harness/fairness.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "harness/testbed.h"
#include "obs/profiler.h"

namespace longlook::bench {

// Parsed bench CLI. Flags win; the env vars are fallback defaults, and
// nothing round-trips through setenv any more — the values flow into the
// harness explicitly via CompareOptions (satellite of PR 5; the old
// implementation mutated process state, which is not thread-safe).
struct BenchOptions {
  std::string trace_dir;  // --trace-out <dir>, else $LL_TRACE_OUT
  std::string json_out;   // --json-out <path>, else $LL_BENCH_JSON
  // Workload scenario DSL strings (--scenario, repeatable); consumed by
  // bench_perf, rejected as unknown by the figure benches via
  // parse_args(..., /*accept_scenarios=*/false).
  std::vector<std::string> scenarios;
};

// Strict positive-int parse for CLI/env numeric options: the whole token
// must be digits and fit an int. Rejects what atoi silently accepted —
// "5x", "", overflow — so a typoed rounds count fails loudly instead of
// running the wrong experiment.
inline bool parse_positive_int(std::string_view text, int* out) {
  int v = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto res = std::from_chars(begin, end, v);
  if (res.ec != std::errc() || res.ptr != end || v <= 0) return false;
  *out = v;
  return true;
}

namespace detail {
// --rounds override; 0 = not set (fall back to LL_BENCH_ROUNDS / default).
inline int g_rounds_override = 0;
}  // namespace detail

inline int rounds() {
  if (detail::g_rounds_override > 0) return detail::g_rounds_override;
  if (const char* env = std::getenv("LL_BENCH_ROUNDS")) {
    // Malformed values are rejected (with the token named) by parse_args
    // before any bench consults this.
    int r = 0;
    if (parse_positive_int(env, &r)) return r;
  }
  return 5;  // 10 in the paper; 5 keeps the full suite fast and still
             // yields p < 0.01 for the effects the paper calls significant
}

namespace detail {

inline std::int64_t seconds_to_us(double s) {
  return std::llround(s * 1e6);
}

// One bench cell rendered as an integer-only JSON object. Everything here
// derives from the CellResult, which the sweep engine already guarantees is
// byte-identical at any LL_JOBS, so the rendered text inherits the same
// contract (doubles are collapsed through llround at fixed scales: us for
// times, basis points for percentages, ppm for p-values).
inline std::string cell_json(const std::string& row, const std::string& col,
                             const harness::CellResult& cell) {
  std::string out = "{\"row\":\"";
  obs::append_json_escaped(out, row);
  out += "\",\"col\":\"";
  obs::append_json_escaped(out, col);
  out += "\",\"quic_mean_us\":" +
         std::to_string(seconds_to_us(cell.quic_mean_s));
  out += ",\"tcp_mean_us\":" + std::to_string(seconds_to_us(cell.tcp_mean_s));
  out += ",\"pct_diff_bp\":" +
         std::to_string(std::llround(cell.pct_diff * 100.0));
  out += ",\"p_ppm\":" + std::to_string(std::llround(cell.p_value * 1e6));
  out += ",\"significant\":";
  out += cell.significant ? "true" : "false";
  out += ",\"all_complete\":";
  out += cell.all_complete ? "true" : "false";
  out += ",\"quic_plt_us\":[";
  bool first = true;
  for (double s : cell.quic_plt_s) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(seconds_to_us(s));
  }
  out += "],\"tcp_plt_us\":[";
  first = true;
  for (double s : cell.tcp_plt_s) {
    if (!first) out += ',';
    first = false;
    out += std::to_string(seconds_to_us(s));
  }
  out += "],\"metrics\":";
  out += cell.metrics.to_json();
  out += '}';
  return out;
}

}  // namespace detail

// Per-process bench context: holds the parsed options, the bench name, the
// profiler (only when JSON output is enabled), and the deterministic
// sections recorded along the way. Single-threaded by design: it is only
// touched from main() between sweeps (worker threads feed the profiler
// through its own internal shards, never through this object).
class BenchContext {
 public:
  void init(const std::string& argv0, const BenchOptions& opts) {
    name_ = std::filesystem::path(argv0).filename().string();
    if (name_.rfind("bench_", 0) == 0) name_ = name_.substr(6);
    opts_ = opts;
    if (!opts_.json_out.empty()) {
      profiler_ = std::make_unique<obs::Profiler>();
      start_wall_ns_ = obs::Profiler::wall_now_ns();
    }
  }

  const std::string& trace_dir() const { return opts_.trace_dir; }
  bool json_enabled() const { return profiler_ != nullptr; }
  obs::Profiler* profiler() { return profiler_.get(); }

  // Overlays the parsed options onto harness options a bench built itself:
  // the profiler handle always, the trace dir only when the bench did not
  // set one explicitly.
  void apply(harness::CompareOptions& opts) {
    opts.profiler = profiler_.get();
    if (opts.trace_dir.empty()) opts.trace_dir = opts_.trace_dir;
  }

  // --- deterministic-section recorders (no-ops when JSON is off) ---------
  void record_cell(const std::string& section, const std::string& row,
                   const std::string& col, const harness::CellResult& cell) {
    if (!json_enabled()) return;
    find_section(section).push_back(detail::cell_json(row, col, cell));
  }

  void record_grid(const std::string& section,
                   const std::vector<std::string>& row_labels,
                   const std::vector<std::string>& col_labels,
                   const std::vector<std::vector<harness::CellResult>>& grid) {
    if (!json_enabled()) return;
    for (std::size_t r = 0; r < grid.size(); ++r) {
      for (std::size_t c = 0; c < grid[r].size(); ++c) {
        record_cell(section, r < row_labels.size() ? row_labels[r] : "",
                    c < col_labels.size() ? col_labels[c] : "", grid[r][c]);
      }
    }
  }

  // Free-form deterministic scalar (callers pre-scale doubles to integers,
  // e.g. llround(x * 1e6)).
  void record_scalar(const std::string& section, const std::string& key,
                     std::int64_t value) {
    if (!json_enabled()) return;
    std::string cell = "{\"key\":\"";
    obs::append_json_escaped(cell, key);
    cell += "\",\"value\":" + std::to_string(value) + '}';
    find_section(section).push_back(std::move(cell));
  }

  // Writes BENCH_<name>.json (path from --json-out / LL_BENCH_JSON; a value
  // not ending in ".json" is treated as a directory). Returns an exit code
  // for main(). No-op returning 0 when JSON output is disabled.
  int finish() {
    if (!json_enabled()) return 0;
    const std::string path = output_path();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return 1;
    }
    out << render();
    out.close();
    return out ? 0 : 1;
  }

 private:
  using Section = std::pair<std::string, std::vector<std::string>>;

  std::vector<std::string>& find_section(const std::string& title) {
    for (Section& s : sections_) {
      if (s.first == title) return s.second;
    }
    sections_.emplace_back(title, std::vector<std::string>());
    return sections_.back().second;
  }

  std::string output_path() const {
    const std::string& spec = opts_.json_out;
    const std::string suffix = ".json";
    if (spec.size() >= suffix.size() &&
        spec.compare(spec.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      const std::filesystem::path parent =
          std::filesystem::path(spec).parent_path();
      if (!parent.empty()) std::filesystem::create_directories(parent);
      return spec;
    }
    std::filesystem::create_directories(spec);
    return spec + "/BENCH_" + name_ + ".json";
  }

  std::string render() const {
    std::string out = "{\"v\":1,\"name\":\"";
    obs::append_json_escaped(out, name_);
    out += "\",\"rounds\":" + std::to_string(rounds());
    out += ",\"deterministic\":{\"sections\":[";
    bool first = true;
    for (const Section& s : sections_) {
      if (!first) out += ',';
      first = false;
      out += "{\"title\":\"";
      obs::append_json_escaped(out, s.first);
      out += "\",\"cells\":[";
      bool cfirst = true;
      for (const std::string& cell : s.second) {
        if (!cfirst) out += ',';
        cfirst = false;
        out += cell;
      }
      out += "]}";
    }
    out += "]},\"profile\":";
    out += render_profile();
    out += '}';
    return out;
  }

  std::string render_profile() const {
    const std::int64_t wall_ns =
        obs::Profiler::wall_now_ns() - start_wall_ns_;
    const obs::ProfilerSnapshot snap = profiler_->snapshot();
    const double wall_s =
        wall_ns > 0 ? static_cast<double>(wall_ns) / 1e9 : 1e-9;
    auto rate = [&](std::string_view key) {
      return std::llround(static_cast<double>(snap.counter(key)) / wall_s);
    };
    std::string out = "{\"wall_ns\":" + std::to_string(wall_ns);
    out += ",\"jobs\":" + std::to_string(harness::default_job_count());
    out += ",\"events_per_sec\":" + std::to_string(rate("sim_events"));
    out += ",\"packets_per_sec\":" + std::to_string(rate("packets_forwarded"));
    out += ",\"bytes_per_sec\":" + std::to_string(rate("bytes_moved"));
    out += ",\"agg\":";
    out += snap.to_json();
    out += '}';
    return out;
  }

  std::string name_ = "bench";
  BenchOptions opts_;
  std::unique_ptr<obs::Profiler> profiler_;
  std::int64_t start_wall_ns_ = 0;
  std::vector<Section> sections_;
};

inline BenchContext& context() {
  static BenchContext ctx;
  return ctx;
}

// Side-effect-free parse outcome: on failure `error` names the offending
// token (unknown option, missing value, or malformed integer) so the
// caller's diagnostic — and the regression tests — can point at it.
struct ParsedArgs {
  BenchOptions opts;
  int rounds = 0;  // --rounds override; 0 = not set
  std::string error;

  bool ok() const { return error.empty(); }
};

// Parses a bench CLI without touching process state (no exit, no context
// init) — the testable core of parse_args. Env fallbacks for trace/json
// paths are applied here; LL_BENCH_ROUNDS is validated here so a malformed
// value hard-errors instead of being atoi-truncated into a silently wrong
// round count.
inline ParsedArgs parse_args_core(int argc, const char* const* argv,
                                  bool accept_scenarios = false) {
  ParsedArgs out;
  if (const char* env = std::getenv("LL_TRACE_OUT")) {
    out.opts.trace_dir = env;
  }
  if (const char* env = std::getenv("LL_BENCH_JSON")) out.opts.json_out = env;
  if (const char* env = std::getenv("LL_BENCH_ROUNDS")) {
    int r = 0;
    if (!parse_positive_int(env, &r)) {
      out.error = "LL_BENCH_ROUNDS='" + std::string(env) +
                  "' is not a positive integer";
      return out;
    }
  }
  auto value_of = [&](const std::string& arg, const char* flag,
                      int* i, std::string* value) -> bool {
    const std::string eq = std::string(flag) + "=";
    if (arg == flag) {
      if (*i + 1 >= argc) {
        out.error = std::string("option '") + flag + "' requires a value";
        return false;
      }
      *value = argv[++*i];
      return true;
    }
    if (arg.rfind(eq, 0) == 0) {
      *value = arg.substr(eq.size());
      return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--trace-out" || arg.rfind("--trace-out=", 0) == 0) {
      if (!value_of(arg, "--trace-out", &i, &value)) return out;
      out.opts.trace_dir = value;
    } else if (arg == "--json-out" || arg.rfind("--json-out=", 0) == 0) {
      if (!value_of(arg, "--json-out", &i, &value)) return out;
      out.opts.json_out = value;
    } else if (arg == "--rounds" || arg.rfind("--rounds=", 0) == 0) {
      if (!value_of(arg, "--rounds", &i, &value)) return out;
      if (!parse_positive_int(value, &out.rounds)) {
        out.error =
            "option '--rounds' needs a positive integer, got '" + value + "'";
        return out;
      }
    } else if (accept_scenarios &&
               (arg == "--scenario" || arg.rfind("--scenario=", 0) == 0)) {
      if (!value_of(arg, "--scenario", &i, &value)) return out;
      out.opts.scenarios.push_back(value);
    } else {
      out.error = "unknown option '" + arg + "'";
      return out;
    }
  }
  return out;
}

// Shared bench CLI: `--trace-out <dir>` routes structured JSON-lines traces
// + metrics for every run into <dir>; `--json-out <path>` writes the
// machine-readable BENCH_<name>.json; `--rounds <n>` overrides
// LL_BENCH_ROUNDS. All accept `--flag=value` too and fall back to
// LL_TRACE_OUT / LL_BENCH_JSON. Any unknown or malformed token is a hard
// error naming the token (exit 2). Initializes the bench context and
// returns the parsed options. `accept_scenarios` additionally enables the
// repeatable `--scenario <dsl>` flag (bench_perf).
inline BenchOptions parse_args(int argc, char** argv,
                               bool accept_scenarios = false) {
  ParsedArgs parsed = parse_args_core(argc, argv, accept_scenarios);
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "%s: error: %s\n"
                 "usage: %s [--trace-out <dir>] [--json-out <path>]"
                 " [--rounds <n>]%s\n"
                 "  (env: LL_TRACE_OUT, LL_BENCH_JSON, LL_BENCH_ROUNDS,"
                 " LL_JOBS)\n",
                 argc > 0 ? argv[0] : "bench", parsed.error.c_str(),
                 argc > 0 ? argv[0] : "bench",
                 accept_scenarios ? " [--scenario <dsl>]..." : "");
    std::exit(2);
  }
  detail::g_rounds_override = parsed.rounds;
  context().init(argc > 0 ? argv[0] : "bench", parsed.opts);
  return parsed.opts;
}

// Applies the parsed bench options to harness options built by the bench
// itself (profiler handle + trace-dir default).
inline void apply(harness::CompareOptions& opts) { context().apply(opts); }

// Writes the BENCH_<name>.json artifact if JSON output is enabled; benches
// end with `return longlook::bench::finish();`.
inline int finish() { return context().finish(); }

inline void banner(const std::string& what, const std::string& paper_ref) {
  std::printf("\n################################################################\n");
  std::printf("# %s\n# Reproduces: %s\n", what.c_str(), paper_ref.c_str());
  std::printf("################################################################\n");
}

// The paper's emulated rates (Table 2).
inline std::vector<std::int64_t> paper_rates_bps() {
  return {5'000'000, 10'000'000, 50'000'000, 100'000'000};
}

inline std::string rate_label(std::int64_t bps) {
  return std::to_string(bps / 1'000'000) + "Mbps";
}

// Runs a full QUIC-vs-TCP heatmap: rows = rates, cols = workloads. Every
// (rate, workload, round) simulation is an independent SweepRunner job;
// cells are committed in submission order, so the rendered heatmap is
// byte-identical at any LL_JOBS. The grid is also recorded into the
// deterministic JSON section (one section per heatmap title) when JSON
// output is enabled.
inline void run_heatmap(
    const std::string& title, const std::vector<std::int64_t>& rates,
    const std::vector<std::pair<std::string, harness::Workload>>& cols,
    const std::function<harness::Scenario(std::int64_t)>& make_scenario,
    const harness::CompareOptions& base_opts) {
  std::vector<std::string> col_labels;
  std::vector<harness::Workload> workloads;
  for (const auto& [label, w] : cols) {
    col_labels.push_back(label);
    workloads.push_back(w);
  }
  std::vector<std::string> row_labels;
  std::vector<harness::Scenario> row_scenarios;
  for (std::int64_t rate : rates) {
    row_labels.push_back(rate_label(rate));
    row_scenarios.push_back(make_scenario(rate));
    // Fold the row into trace-artifact names (Scenario::name only feeds the
    // obs layer, so this cannot perturb bench stdout).
    if (row_scenarios.back().name == "default") {
      row_scenarios.back().name = rate_label(rate);
    }
  }
  harness::CompareOptions opts = base_opts;
  opts.rounds = rounds();
  context().apply(opts);

  harness::SweepRunner runner;
  runner.set_profiler(context().profiler());
  harness::ProgressReporter progress(stderr);
  const auto grid = harness::run_plt_grid(runner, row_scenarios, workloads,
                                          opts, &progress);
  progress.finish();
  context().record_grid(title, row_labels, col_labels, grid);

  std::vector<std::vector<harness::HeatmapCell>> cells;
  for (const auto& row : grid) {
    std::vector<harness::HeatmapCell> out_row;
    for (const auto& cell : row) out_row.push_back(harness::to_heatmap_cell(cell));
    cells.push_back(std::move(out_row));
  }
  harness::print_heatmap(std::cout, title, col_labels, row_labels, cells);
}

}  // namespace longlook::bench
