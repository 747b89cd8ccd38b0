// In-memory span log for the traced run.
//
// A span covers one call into a layer: its name, start and end in host
// nanoseconds, the span that was open when it began (its parent) and the
// simulated run it belongs to. Spans are appended in begin order, so a
// parent always precedes its children; they stay in memory until the run
// ends and are then folded into per-name totals. A span's self time is its
// duration minus the durations of its direct children.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

enum SpanName : std::uint8_t {
  kSimStep,          // one Simulator::step()
  kNetDeliver,       // a link delivery into Host::deliver
  kQuicRx,           // a datagram handed to a QUIC endpoint
  kTcpRx,            // a segment handed to a TCP endpoint
  kQuicWrite,        // AppStream::write / session flush over QUIC
  kTcpWrite,         // AppStream::write / session flush over TCP+H2
  kQuicSession,      // ClientSession::open_stream / can_open_stream over QUIC
  kTcpSession,       // the same over TCP+H2
  kHttpOnData,       // page-loader / scenario-runner callback
  kHarnessSetup,     // building one run's testbed, servers and client
  kHarnessTeardown,  // destroying them
  kSpanNameCount,
};

inline constexpr std::array<const char*, kSpanNameCount> kSpanNames = {
    "sim.step",     "net.deliver",    "quic.rx",      "tcp.rx",
    "quic.write",   "tcp.write",      "quic.session", "tcp.session",
    "http.on_data", "harness.setup",  "harness.teardown"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the log, -1 for a root span
  std::uint32_t run = 0;
  SpanName name = kSimStep;
};

inline std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  void set_run(std::uint32_t run) { run_ = run; }

  std::int32_t begin(SpanName name) {
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({host_now_ns(), 0, open_, run_, name});
    open_ = idx;
    return idx;
  }
  void end(std::int32_t idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.end_ns = host_now_ns();
    open_ = s.parent;
  }

  const std::vector<Span>& spans() const { return spans_; }
  // Drops the spans but keeps the capacity for the next run.
  void clear() {
    spans_.clear();
    open_ = -1;
  }

  // For tests: append a finished span with explicit times.
  void add(SpanName name, std::int64_t start, std::int64_t end,
           std::int32_t parent) {
    spans_.push_back({start, end, parent, run_, name});
  }

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t run_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanName name) : log_(log), idx_(log.begin(name)) {}
  ~ScopedSpan() { log_.end(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

struct SpanTotals {
  std::array<std::uint64_t, kSpanNameCount> count{};
  std::array<std::int64_t, kSpanNameCount> total_ns{};
  std::array<std::int64_t, kSpanNameCount> self_ns{};
  std::int64_t root_ns = 0;  // summed duration of spans without a parent

  void merge(const SpanTotals& o) {
    for (std::size_t i = 0; i < kSpanNameCount; ++i) {
      count[i] += o.count[i];
      total_ns[i] += o.total_ns[i];
      self_ns[i] += o.self_ns[i];
    }
    root_ns += o.root_ns;
  }
};

// Self time of every span (same indexing as `spans`). Children follow their
// parent, so one backward pass settles each span before its parent.
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (std::size_t i = spans.size(); i-- > 0;) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0) {
      self[static_cast<std::size_t>(p)] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  return self;
}

inline SpanTotals fold_spans(const std::vector<Span>& spans,
                             const std::vector<std::int64_t>& self) {
  SpanTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++t.count[s.name];
    t.total_ns[s.name] += dur;
    t.self_ns[s.name] += self[i];
    if (s.parent < 0) t.root_ns += dur;
  }
  return t;
}

}  // namespace perfbench
