#include "workloads.h"

#include <cstring>
#include <string_view>

#include "util/check.h"

namespace perfbench {

using longlook::harness::Scenario;

namespace {

constexpr std::int64_t kMbps = 1'000'000;

// The paper's desktop grid (Fig. 6a/6b columns, the four testbed rates),
// clean and again at 1% loss per direction (the Fig. 8 loss rows).
Workload web_grid(std::uint64_t seed) {
  Workload w;
  w.name = "web_grid";
  for (const double loss : {0.0, 0.01}) {
    for (const std::int64_t rate : {5 * kMbps, 10 * kMbps, 50 * kMbps,
                                    100 * kMbps}) {
      Scenario s;
      s.name = "web_" + std::to_string(rate / kMbps) +
               (loss > 0 ? "M_loss1" : "M_clean");
      s.rate_bps = rate;
      s.loss_rate = loss;
      s.seed = seed;
      w.rows.push_back(s);
    }
  }
  constexpr std::size_t kKB = 1024;
  w.cols = {{1, 10 * kKB},   {1, 100 * kKB}, {1, 1024 * kKB},
            {1, 10240 * kKB}, {1, 10 * kKB},  {2, 10 * kKB},
            {5, 10 * kKB},    {10, 10 * kKB}, {100, 10 * kKB},
            {200, 10 * kKB}};
  return w;
}

Workload dsl_cell(std::string name, std::string_view spec,
                  std::int64_t rate_bps, longlook::Duration extra_rtt,
                  std::uint64_t seed) {
  Workload w;
  w.name = std::move(name);
  Scenario s;
  s.name = w.name;
  s.rate_bps = rate_bps;
  s.extra_rtt = extra_rtt;
  s.seed = seed;
  w.rows.push_back(s);
  auto parsed = longlook::workload::parse_scenario(spec, w.name);
  LL_CHECK(parsed.ok()) << parsed.error;
  w.spec = *parsed.spec;
  return w;
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
}

void fnv_durations(std::uint64_t& h, const std::vector<double>& v) {
  const std::uint64_t n = v.size();
  fnv(h, &n, sizeof n);
  for (const double d : v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    fnv(h, &bits, sizeof bits);
  }
}

}  // namespace

std::uint64_t Workload::app_bytes_per_run(std::size_t cell) const {
  if (!is_grid()) {
    return spec->total_upload_bytes() + spec->total_download_bytes();
  }
  const auto& col = cols[cell % cols.size()];
  return col.object_count * col.object_bytes;
}

std::uint64_t Workload::transactions_per_run(std::size_t cell) const {
  if (!is_grid()) return spec->total_transactions();
  return cols[cell % cols.size()].object_count;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  if (name == "web_grid") return web_grid(seed);
  // A 20 MB download beside a concurrent 5 MB upload on one connection,
  // 100 Mbps and +100 ms RTT: ~1,100 full-size packets in flight each way.
  if (name == "bulk_bdp") {
    return dsl_cell(name, "*1:0:-:397:20000000;*1:4:-:5000000:397;",
                    100 * kMbps, longlook::milliseconds(100), seed);
  }
  // Four closed-loop chains of 1000 request/response transactions (128 B
  // up, 1 KiB down, a fresh stream each) on one long-lived connection.
  if (name == "rpc_churn") {
    return dsl_cell(name,
                    "*1000:0:-:128:1024;*1000:1:-:128:1024;"
                    "*1000:2:-:128:1024;*1000:3:-:128:1024;",
                    10 * kMbps, longlook::kNoDuration, seed);
  }
  return std::nullopt;
}

const std::vector<std::string>& count_names() {
  static const std::vector<std::string> names = {
      "sim.events",          "sim.timer_ops",       "sim.event_pool_slots",
      "sim.callback_heap",   "net.packets_forwarded", "net.bytes_moved",
      "net.drops_queue",     "net.drops_random",    "net.reordered",
      "quic.packets_sent",   "quic.packets_lost",   "quic.spurious_losses",
      "quic.tlps",           "quic.rtos",           "tcp.segments_sent",
      "tcp.retransmits",     "tcp.dsack_events",    "tcp.rtos",
      "workload.transactions", "harness.runs",      "harness.timeouts"};
  return names;
}

void Outcome::fail(std::uint64_t runs, const std::string& why) {
  failed += runs;
  if (failures.size() < 8) failures.push_back(why);
}

void check_runs(const Workload& w, int rounds, Outcome& out) {
  const auto r = static_cast<std::size_t>(rounds);
  for (std::size_t c = 0; c < out.cells.size(); ++c) {
    const Outcome::Cell& cell = out.cells[c];
    out.attempted += 2 * r;
    const std::string where = w.name + " cell " + std::to_string(c) + " (" +
                              w.cell_scenario(c).name + ")";
    if (cell.quic_s.size() < r) {
      out.fail(r - cell.quic_s.size(), where + ": QUIC run timed out");
    }
    if (cell.tcp_s.size() < r) {
      out.fail(r - cell.tcp_s.size(), where + ": TCP run timed out");
    }
    if (cell.quic_s.size() != cell.tcp_s.size() && out.failures.size() < 8) {
      out.failures.push_back(where + ": a round lacks its QUIC or TCP run");
    }
    const std::size_t runs = cell.quic_s.size() + cell.tcp_s.size();
    out.app_bytes += static_cast<double>(runs * w.app_bytes_per_run(c));
    for (const double d : cell.quic_s) out.sim_seconds += d;
    for (const double d : cell.tcp_s) out.sim_seconds += d;
  }
}

std::uint64_t sim_digest(const Workload& w, const Outcome& o,
                         bool lossy_rows_only) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t c = 0; c < o.cells.size(); ++c) {
    if (lossy_rows_only && w.cell_scenario(c).loss_rate <= 0) continue;
    fnv_durations(h, o.cells[c].quic_s);
    fnv_durations(h, o.cells[c].tcp_s);
  }
  if (lossy_rows_only) return h;
  for (const auto& [name, value] : o.counts) {
    fnv(h, name.data(), name.size());
    fnv(h, &value, sizeof value);
  }
  return h;
}

}  // namespace perfbench
