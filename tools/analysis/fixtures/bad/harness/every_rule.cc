// Fixture: one deliberate violation of each determinism rule. Never
// compiled; tests/test_analysis_selftest.py pins the exact count of
// findings on each line below. The "harness/" path component is
// load-bearing: it puts this file in an order-sensitive layer so
// unordered-in-report fires.
#include <chrono>
#include <cstdlib>
#include <map>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>

struct Packet;

void every_rule() {
  auto t = std::chrono::steady_clock::now();          // wall-clock
  int noise = std::rand();                            // raw-rand
  std::mt19937 gen(42);                               // raw-rand
  std::unordered_map<int, int> counts;                // unordered-in-report
  for (const auto& kv : counts_unordered) {           // unordered-iteration
  }
  std::map<Packet*, int> by_packet;                   // pointer-keyed-map
  std::set<const Packet*> seen;                       // pointer-keyed-map
  (void)t;
  (void)noise;
  (void)gen;
}

struct BadPod {
  int uninitialized_member;                           // uninitialized-pod
  double also_uninitialized;                          // uninitialized-pod
};
