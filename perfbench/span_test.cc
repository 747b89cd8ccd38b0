// Self-time arithmetic on a synthetic nested span set. Exits non-zero on
// the first wrong figure; run by perfbench/test_perfbench.py.
#include <cstdio>
#include <cstdlib>

#include "spans.h"

namespace {

int failures = 0;

void expect(long long got, long long want, const char* what) {
  if (got == want) return;
  std::printf("FAIL %s: got %lld, want %lld\n", what, got, want);
  ++failures;
}

}  // namespace

int main() {
  using namespace perfbench;
  SpanLog log;
  // step [0,100) -> deliver [10,30), rx [40,90) -> on_data [50,70)
  //                                                -> write [55,60)
  // step [100,150) with no children; teardown [150,170).
  log.add(kSimStep, 0, 100, -1);      // 0
  log.add(kNetDeliver, 10, 30, 0);    // 1
  log.add(kQuicRx, 40, 90, 0);        // 2
  log.add(kHttpOnData, 50, 70, 2);    // 3
  log.add(kQuicWrite, 55, 60, 3);     // 4
  log.add(kSimStep, 100, 150, -1);    // 5
  log.add(kHarnessTeardown, 150, 170, -1);  // 6

  const auto self = self_times(log.spans());
  expect(self[0], 100 - 20 - 50, "outer step self");
  expect(self[1], 20, "deliver self");
  expect(self[2], 50 - 20, "rx self");
  expect(self[3], 20 - 5, "on_data self");
  expect(self[4], 5, "write self");
  expect(self[5], 50, "leaf step self");

  const SpanTotals t = fold_spans(log.spans(), self);
  expect(static_cast<long long>(t.count[kSimStep]), 2, "step count");
  expect(t.total_ns[kSimStep], 150, "step total");
  expect(t.self_ns[kSimStep], 80, "step self total");
  expect(t.self_ns[kQuicRx], 30, "rx self total");
  expect(t.root_ns, 170, "root duration");
  long long sum = 0;
  for (const auto s : t.self_ns) sum += s;
  expect(sum, t.root_ns, "self times sum to the root spans' duration");

  // Live recording nests by the open span.
  SpanLog live;
  {
    ScopedSpan a(live, kSimStep);
    { ScopedSpan b(live, kNetDeliver); }
    { ScopedSpan c(live, kQuicRx); }
  }
  { ScopedSpan d(live, kSimStep); }
  expect(live.spans()[1].parent, 0, "first child's parent");
  expect(live.spans()[2].parent, 0, "second child's parent");
  expect(live.spans()[3].parent, -1, "next root");
  const auto live_self = self_times(live.spans());
  for (std::size_t i = 0; i < live_self.size(); ++i) {
    if (live_self[i] < 0) {
      std::printf("FAIL negative self time at span %zu\n", i);
      ++failures;
    }
  }

  if (failures == 0) std::printf("span_test: ok\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
