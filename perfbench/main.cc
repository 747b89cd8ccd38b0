// perfbench: the host-time cost of the longlook testbed on three workloads.
//
//   perfbench --workload <web_grid|bulk_bdp|rpc_churn> --seed N --seconds S
//             --trace <0|1> [--timeout-ms T] [--spans-out FILE]
//             [--setup-probe]
//
// --trace 0 runs the workload through the harness's public entry points
// (run_plt_grid / compare_scenario_async on a one-worker SweepRunner with
// an obs::Profiler attached) and reports the end-to-end metrics. --trace 1
// adds the traced run (traced.h) and reports the per-layer metrics;
// --spans-out writes the first traced round's per-run span totals there.
// --setup-probe starts up as a measuring run would, performs the first
// simulated run, and prints the host clock at its first simulated event.
// The last stdout line is "RESULT <json>"; perfbench/run.py wraps it.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/perf.h"
#include "quic/frames.h"
#include "spans.h"
#include "tcp/segment.h"
#include "traced.h"
#include "util/pool.h"
#include "workloads.h"

namespace {

using namespace longlook;
namespace pb = perfbench;
using pb::Outcome;
using pb::Workload;

// Refuses to report numbers from a build whose costs are not the product's.
const char* unfit_build() {
#if !defined(NDEBUG)
  return "assertions are enabled (Debug build)";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(LL_FORCE_DCHECKS)
  return "sanitizer build";
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Debug" ? "Debug build"
                                                           : nullptr;
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_probe = false;
  std::optional<Duration> timeout;
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-probe") {
      a.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") return std::nullopt;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else if (k == "--timeout-ms") {
      a.timeout = milliseconds(std::strtoll(v.c_str(), &end, 10));
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (!have_workload || !(a.seconds >= 0)) return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(pb::host_now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Per-run host time of the measured runs, taken by a CompareOptions::setup
// hook: from just after the servers exist until the run's client side is
// torn down. (The Profiler's run:quic histogram also holds every cell's
// warm fetch and is bucketed to 1/16, so its p50 is not used.) One worker
// runs each paired round QUIC first, then TCP, so measured runs alternate.
struct RunTimes {
  std::uint64_t warm_seed = 0;
  bool next_is_tcp = false;
  std::vector<double> quic_ms;
  std::vector<double> tcp_ms;
};

struct Untraced {
  Outcome outcome;
  double wall_s = 0;
  RunTimes times;
};

std::uint64_t warm_seed(const Workload& w) {
  return w.rows.front().seed + 7919;
}

// One paired round of every cell of the workload through the harness.
Untraced run_untraced(const Workload& w, harness::SweepRunner& runner,
                      harness::CompareOptions opts) {
  Untraced u;
  obs::Profiler prof;
  auto times = std::make_shared<RunTimes>();
  times->warm_seed = warm_seed(w);
  opts.profiler = &prof;
  opts.setup = [times](harness::Testbed& tb) -> std::shared_ptr<void> {
    if (tb.scenario().seed == times->warm_seed) return nullptr;
    const std::int64_t start = pb::host_now_ns();
    return std::shared_ptr<void>(times.get(), [times, start](void*) {
      const double ms = static_cast<double>(pb::host_now_ns() - start) * 1e-6;
      (times->next_is_tcp ? times->tcp_ms : times->quic_ms).push_back(ms);
      times->next_is_tcp = !times->next_is_tcp;
    });
  };

  std::vector<harness::CellResult> cells;
  runner.set_profiler(&prof);
  const std::int64_t t0 = pb::host_now_ns();
  if (w.is_grid()) {
    for (auto& row : harness::run_plt_grid(runner, w.rows, w.cols, opts)) {
      for (auto& cell : row) cells.push_back(std::move(cell));
    }
  } else {
    cells.resize(1);
    harness::compare_scenario_async(runner, w.rows.front(), *w.spec, opts,
                                    &cells[0]);
    runner.wait_all();
  }
  u.wall_s = seconds_since(t0);
  runner.set_profiler(nullptr);
  u.times = *times;

  Outcome& out = u.outcome;
  obs::MetricsRegistry m;
  for (const harness::CellResult& cell : cells) {
    out.cells.push_back({cell.quic_plt_s, cell.tcp_plt_s});
    m.merge(cell.metrics);
  }
  const obs::ProfilerSnapshot snap = prof.snapshot();
  auto& c = out.counts;
  c["sim.events"] = snap.counter("sim_events");
  c["sim.timer_ops"] = snap.counter("timer_ops");
  c["sim.event_pool_slots"] = snap.counter("sim_event_pool_slots");
  c["sim.callback_heap"] = snap.counter("sim_callback_heap");
  c["net.packets_forwarded"] = snap.counter("packets_forwarded");
  c["net.bytes_moved"] = snap.counter("bytes_moved");
  c["harness.runs"] = snap.counter("runs");
  auto both = [&m](const std::string& key) {
    return m.counter("quic." + key) + m.counter("tcp." + key);
  };
  c["net.drops_queue"] = both("link_drops_queue");
  c["net.drops_random"] = both("link_drops_random");
  c["net.reordered"] = both("link_reordered");
  c["harness.timeouts"] = both("timeouts");
  c["quic.packets_sent"] =
      m.counter("quic.packets_sent") + m.counter("quic.server_packets_sent");
  c["quic.packets_lost"] = m.counter("quic.packets_declared_lost") +
                           m.counter("quic.server_declared_lost");
  c["quic.spurious_losses"] = m.counter("quic.spurious_losses") +
                              m.counter("quic.server_spurious_losses");
  c["quic.tlps"] = m.counter("quic.tail_loss_probes");
  c["quic.rtos"] =
      m.counter("quic.rto_count") + m.counter("quic.server_rto_count");
  c["tcp.segments_sent"] =
      m.counter("tcp.segments_sent") + m.counter("tcp.server_segments_sent");
  c["tcp.retransmits"] = m.counter("tcp.retransmitted_segments") +
                         m.counter("tcp.server_retransmitted");
  c["tcp.dsack_events"] =
      m.counter("tcp.dsack_events") + m.counter("tcp.server_dsack_events");
  c["tcp.rtos"] =
      m.counter("tcp.rto_count") + m.counter("tcp.server_rto_count");

  // Output checks on what the harness exposes; the traced run checks every
  // object and transaction one by one.
  std::uint64_t transactions = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const harness::CellResult& cell = cells[i];
    const std::string where = w.name + " cell " + std::to_string(i);
    const std::uint64_t per_run = w.transactions_per_run(i);
    if (w.is_grid()) {
      const std::uint64_t quic_runs = cell.quic_plt_s.size();
      transactions += (quic_runs + cell.tcp_plt_s.size()) * per_run;
      const std::uint64_t want = quic_runs * w.app_bytes_per_run(i);
      if (cell.all_complete &&
          cell.metrics.counter("quic.stream_bytes_delivered") != want) {
        out.fail(quic_runs,
                 where + ": QUIC delivered bytes differ from the request");
      }
      continue;
    }
    transactions += cell.metrics.counter("quic.scn_transactions") +
                    cell.metrics.counter("tcp.scn_transactions");
    for (const char* p : {"quic.", "tcp."}) {
      const std::string pre = p;
      const std::uint64_t runs = pre == "quic." ? cell.quic_plt_s.size()
                                                : cell.tcp_plt_s.size();
      // A timed-out run is counted by check_runs; its partial totals are not
      // comparable.
      if (runs != static_cast<std::uint64_t>(opts.rounds)) continue;
      if (cell.metrics.counter(pre + "scn_transactions") != runs * per_run) {
        out.fail(runs, where + " " + pre + ": completed transactions differ");
      } else if (cell.metrics.counter(pre + "scn_download_bytes") !=
                     runs * w.spec->total_download_bytes() ||
                 cell.metrics.counter(pre + "scn_upload_bytes") !=
                     runs * w.spec->total_upload_bytes()) {
        out.fail(runs, where + " " + pre + ": moved bytes differ from the "
                                           "request");
      }
    }
  }
  c["workload.transactions"] = transactions;
  pb::check_runs(w, opts.rounds, out);
  return u;
}

// --- Codec replay ---------------------------------------------------------

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  std::uint64_t mismatches = 0;
};

// Times decode over the captured wire bytes and encode over their decoded
// form, in passes until enough host time has gone by; reports the median
// pass. Every captured packet must survive decode then encode unchanged.
template <typename Decode, typename Encode>
CodecCost replay(const std::vector<Bytes>& wire, Decode decode, Encode encode) {
  CodecCost cost;
  if (wire.empty()) return cost;
  using Decoded = typename decltype(decode(wire.front()))::value_type;
  std::vector<Decoded> decoded;
  decoded.reserve(wire.size());
  for (const Bytes& b : wire) {
    auto d = decode(b);
    if (!d) {
      ++cost.mismatches;
      continue;
    }
    if (encode(*d) != b) ++cost.mismatches;
    decoded.push_back(std::move(*d));
  }
  std::vector<double> enc;
  std::vector<double> dec;
  std::uint64_t sink = 0;
  const std::int64_t start = pb::host_now_ns();
  while (enc.size() < 3 || (seconds_since(start) < 0.2 && enc.size() < 100)) {
    std::int64_t t0 = pb::host_now_ns();
    for (const Bytes& b : wire) {
      auto d = decode(b);
      sink += d.has_value();
    }
    std::int64_t t1 = pb::host_now_ns();
    dec.push_back(ratio(static_cast<double>(t1 - t0),
                        static_cast<double>(wire.size())));
    t0 = pb::host_now_ns();
    for (const Decoded& d : decoded) {
      Bytes b = encode(d);
      sink += b.size();
      util::recycle_bytes(std::move(b));
    }
    t1 = pb::host_now_ns();
    enc.push_back(ratio(static_cast<double>(t1 - t0),
                        static_cast<double>(decoded.size())));
  }
  if (sink == 0) ++cost.mismatches;  // nothing decoded at all
  cost.encode_ns = median(enc);
  cost.decode_ns = median(dec);
  return cost;
}

// --- Output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void absorb(const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const std::string& f : o.failures) notes.push_back("FAIL " + f);
  }
  void wrong(const std::string& why) {
    correct = false;
    ++failed;
    notes.push_back("FAIL " + why);
  }
};

void print_report(const Report& r, const std::string& extra_json) {
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::printf("failed_frac=%s (%llu of %llu runs)\n",
              json_number(r.attempted ? static_cast<double>(r.failed) /
                                            static_cast<double>(r.attempted)
                                      : 0)
                  .c_str(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  std::string metrics;
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + m.name + "\":{\"value\":" + json_number(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}%s}\n",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str(),
              extra_json.c_str());
  std::fflush(stdout);
}

// --- Metrics ----------------------------------------------------------------

template <typename T, typename F>
double median_of(const std::vector<T>& items, F f) {
  std::vector<double> v;
  for (const T& item : items) v.push_back(f(item));
  return median(v);
}

double count_of(const std::vector<Untraced>& runs, const std::string& name) {
  return static_cast<double>(runs.front().outcome.counts.at(name));
}

void add_end_to_end(Report& report, const std::vector<Untraced>& runs) {
  auto per_second = [&](const char* metric, const char* count,
                        const char* unit) {
    const double n = count_of(runs, count);
    report.add(metric,
               median_of(runs, [n](const Untraced& u) { return n / u.wall_s; }),
               unit);
  };
  report.add("wall_s",
             median_of(runs, [](const Untraced& u) { return u.wall_s; }), "s");
  per_second("sim_events_per_s", "sim.events", "1/s");
  per_second("sim_packets_per_s", "net.packets_forwarded", "1/s");
  report.add("goodput_mb_per_s", median_of(runs, [](const Untraced& u) {
               return u.outcome.app_bytes / 1e6 / u.wall_s;
             }),
             "MB/s");
  per_second("runs_per_s", "harness.runs", "1/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  // Printed, not reported: its numerator, the simulated time of web_grid's
  // lossy rows, moves by about 15% between seeds, more than a bound on host
  // time can allow.
  std::printf("sim_speedup=%.6g s/s\n", median_of(runs, [](const Untraced& u) {
                return u.outcome.sim_seconds / u.wall_s;
              }));
}

void add_per_layer(Report& report, const std::vector<Untraced>& runs,
                   const std::vector<pb::TracedIteration>& traced,
                   const std::string& spans_out) {
  for (const std::string& k : pb::count_names()) {
    report.add(k, count_of(runs, k),
               k == "net.bytes_moved" ? "bytes" : "count");
  }
  std::vector<double> quic_ms;
  std::vector<double> tcp_ms;
  for (const Untraced& u : runs) {
    quic_ms.insert(quic_ms.end(), u.times.quic_ms.begin(),
                   u.times.quic_ms.end());
    tcp_ms.insert(tcp_ms.end(), u.times.tcp_ms.begin(), u.times.tcp_ms.end());
  }
  report.add("quic.run_ms_p50", median(quic_ms), "ms");
  report.add("tcp.run_ms_p50", median(tcp_ms), "ms");

  // Host time per span of one name: its self time, or its whole duration.
  auto per_call = [&](const char* metric, pb::SpanName n, bool self,
                      const char* unit, double scale = 1) {
    report.add(metric, median_of(traced, [=](const pb::TracedIteration& t) {
                 const auto& ns = self ? t.totals.self_ns : t.totals.total_ns;
                 return ratio(static_cast<double>(ns[n]) / scale,
                              static_cast<double>(t.totals.count[n]));
               }),
               unit);
  };
  per_call("sim.step_ns_per_event", pb::kSimStep, false, "ns");
  per_call("sim.self_ns_per_event", pb::kSimStep, true, "ns");
  per_call("net.deliver_self_ns_per_pkt", pb::kNetDeliver, true, "ns");
  per_call("quic.rx_self_ns_per_pkt", pb::kQuicRx, true, "ns");
  per_call("tcp.rx_self_ns_per_seg", pb::kTcpRx, true, "ns");
  report.add("quic.rx_ns_per_pkt_growth",
             median_of(traced, [](const pb::TracedIteration& t) {
               return ratio(static_cast<double>(t.rx_last_ns),
                            static_cast<double>(t.rx_first_ns));
             }),
             "ratio");
  per_call("quic.write_ns_per_call", pb::kQuicWrite, false, "ns");
  per_call("tcp.write_ns_per_call", pb::kTcpWrite, false, "ns");
  per_call("http.on_data_self_ns_per_call", pb::kHttpOnData, true, "ns");
  per_call("harness.setup_us_per_run", pb::kHarnessSetup, true, "us", 1e3);
  per_call("harness.teardown_us_per_run", pb::kHarnessTeardown, false, "us",
           1e3);

  const pb::TracedIteration& first = traced.front();
  if (!spans_out.empty()) {
    std::FILE* f = std::fopen(spans_out.c_str(), "w");
    if (f == nullptr || std::fputs(first.span_summary.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
      report.wrong("could not write " + spans_out);
    }
  }
  const CodecCost qc = replay(
      first.quic_wire, [](const Bytes& b) { return quic::decode_packet(b); },
      [](const quic::QuicPacket& p) { return quic::encode_packet(p); });
  const CodecCost tc = replay(
      first.tcp_wire, [](const Bytes& b) { return tcp::decode_segment(b); },
      [](const tcp::TcpSegment& s) { return tcp::encode_segment(s); });
  if (qc.mismatches + tc.mismatches > 0) {
    report.wrong(std::to_string(qc.mismatches + tc.mismatches) +
                 " captured packets failed the codec round trip");
  }
  std::printf("codec replay: %zu QUIC datagrams, %zu TCP segments\n",
              first.quic_wire.size(), first.tcp_wire.size());
  report.add("quic.encode_ns_per_pkt", qc.encode_ns, "ns");
  report.add("quic.decode_ns_per_pkt", qc.decode_ns, "ns");
  report.add("tcp.encode_ns_per_seg", tc.encode_ns, "ns");
  report.add("tcp.decode_ns_per_seg", tc.decode_ns, "ns");

  // Self-time shares of the traced wall time. Every span's self time is
  // counted once, so within one iteration the shares and the unattributed
  // part sum to one; their medians need not.
  const std::vector<std::pair<const char*, std::vector<pb::SpanName>>> layers =
      {{"sim", {pb::kSimStep}},
       {"net", {pb::kNetDeliver}},
       {"quic", {pb::kQuicRx, pb::kQuicWrite, pb::kQuicSession}},
       {"tcp", {pb::kTcpRx, pb::kTcpWrite, pb::kTcpSession}},
       {"http", {pb::kHttpOnData}},
       {"harness", {pb::kHarnessSetup, pb::kHarnessTeardown}}};
  double share_sum = 0;
  for (const auto& [layer, names] : layers) {
    const double share =
        median_of(traced, [&names](const pb::TracedIteration& t) {
          std::int64_t self = 0;
          for (pb::SpanName n : names) self += t.totals.self_ns[n];
          return ratio(static_cast<double>(self),
                       static_cast<double>(t.wall_ns));
        });
    share_sum += share;
    report.add(std::string(layer) + ".self_share", share, "share");
  }
  const double unattributed =
      median_of(traced, [](const pb::TracedIteration& t) {
        return ratio(static_cast<double>(t.wall_ns - t.totals.root_ns),
                     static_cast<double>(t.wall_ns));
      });
  report.add("unattributed_share", unattributed, "share");
  for (const pb::TracedIteration& t : traced) {
    std::int64_t self = 0;
    for (const std::int64_t ns : t.totals.self_ns) self += ns;
    if (self != t.totals.root_ns || t.totals.root_ns > t.wall_ns) {
      report.wrong("span self times do not account for the traced wall time");
    }
  }
  std::printf("layer shares + unattributed = %.6f\n",
              share_sum + unattributed);
  const double traced_wall_s =
      median_of(traced, [](const pb::TracedIteration& t) {
        return static_cast<double>(t.wall_ns) * 1e-9;
      });
  const double untraced_wall_s =
      median_of(runs, [](const Untraced& u) { return u.wall_s; });
  report.add("bench.trace_overhead_frac", traced_wall_s / untraced_wall_s - 1,
             "frac");
}

// Start-up as a measuring run does it, then the workload's first simulated
// run (a cell's warm fetch) with a marker event scheduled first.
int setup_probe(const Workload& w, harness::CompareOptions opts) {
  obs::Profiler prof;
  harness::SweepRunner runner(1);
  runner.set_profiler(&prof);
  opts.profiler = &prof;
  std::int64_t first_event_ns = 0;
  opts.setup = [&first_event_ns](
                   harness::Testbed& tb) -> std::shared_ptr<void> {
    tb.sim().schedule(kNoDuration, [&first_event_ns] {
      if (first_event_ns == 0) first_event_ns = pb::host_now_ns();
    });
    return nullptr;
  };
  runner.submit([&] {
    harness::Scenario warm = w.rows.front();
    warm.seed = warm_seed(w);
    quic::TokenCache tokens;
    (void)harness::run_quic_page_load(warm, {1, 1024}, opts, tokens);
  });
  runner.wait_all();
  std::printf("FIRST_EVENT_NS %lld\n", static_cast<long long>(first_event_ns));
  return first_event_ns > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  std::optional<Workload> w;
  if (parsed) w = pb::make_workload(parsed->workload, parsed->seed);
  if (!w) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <web_grid|bulk_bdp|rpc_churn> "
                 "--seed N --seconds S --trace <0|1> [--timeout-ms T] "
                 "[--spans-out FILE] [--setup-probe]\n");
    return 2;
  }
  const Args& args = *parsed;
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why);
    return 3;
  }
  harness::CompareOptions opts;
  opts.rounds = 1;
  if (args.timeout) opts.timeout = *args.timeout;
  if (args.setup_probe) return setup_probe(*w, opts);

  harness::SweepRunner runner(1);
  std::printf("env nproc=%ld build_type=%s compiler=\"%s\" workers=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER, runner.jobs());

  Report report;
  // One discarded warm-up execution: the first pass through a fresh process
  // pays page faults and cold caches that later passes do not.
  const Untraced warmup = run_untraced(*w, runner, opts);
  report.absorb(warmup.outcome);

  std::vector<Untraced> runs;
  std::vector<pb::TracedIteration> traced;
  const std::int64_t start = pb::host_now_ns();
  do {
    runs.push_back(run_untraced(*w, runner, opts));
    report.absorb(runs.back().outcome);
    if (args.trace) {
      traced.push_back(pb::run_traced(*w, opts.timeout, traced.empty()));
      report.absorb(traced.back().outcome);
    }
  } while (seconds_since(start) < args.seconds);

  const std::uint64_t digest = pb::sim_digest(*w, warmup.outcome);
  for (const Untraced& u : runs) {
    if (pb::sim_digest(*w, u.outcome) != digest) {
      report.wrong("sim_digest differs between iterations with one seed");
    }
  }
  for (const pb::TracedIteration& t : traced) {
    if (pb::sim_digest(*w, t.outcome) != digest) {
      report.wrong("the traced run's sim_digest differs from the untraced "
                   "run's");
    }
  }
  std::printf("workload=%s seed=%llu iterations=%zu (+1 warm-up) sim_digest=%s",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              runs.size(), hex(digest).c_str());
  if (w->is_grid()) {
    std::printf(" lossy_rows_digest=%s",
                hex(pb::sim_digest(*w, runs.front().outcome, true)).c_str());
  }
  std::printf("\niteration wall_s:");
  for (const Untraced& u : runs) std::printf(" %.4f", u.wall_s);
  std::printf("\n");

  if (args.trace) {
    add_per_layer(report, runs, traced, args.spans_out);
  } else {
    add_end_to_end(report, runs);
  }
  print_report(report, ",\"sim_digest\":\"" + hex(digest) + "\"");
  return report.correct && report.failed == 0 ? 0 : 1;
}
