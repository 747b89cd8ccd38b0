// PageLoader: loads a synthetic page (N objects of S bytes) over a
// ClientSession and measures page load time exactly as the paper does —
// from connection initiation to the last object's final byte, with
// per-object resource timings (the HAR extract of Sec. 3.3).
//
// The harness does not use it: harness page loads run as one-entry
// `page=NxB` scenarios through workload::ScenarioRunner, which issues the
// same requests with the same stream-limit queueing (identical PLT and
// simulator counters, pinned in tests/test_workload.cc). It stays for the
// code that builds a testbed by hand and reads per-object timings:
//   * harness/fairness.cc — long-running flows sampled by bytes received;
//   * perfbench/traced.cc — the benchmark's traced run, which rebuilds a
//     harness run from the layers' types and must match its digest;
//   * benches fig02, fig03, fig13 and tab05, examples quickstart and
//     infer_state_machine;
//   * tests (http, trace, proxy, e2e, handshake, paper findings).
#pragma once

#include <functional>
#include <vector>

#include "http/app_stream.h"
#include "sim/simulator.h"

namespace longlook::http {

struct PageConfig {
  std::size_t object_count = 1;
  std::size_t object_bytes = 100 * 1024;
};

struct ObjectTiming {
  std::size_t index = 0;
  TimePoint issued{};
  TimePoint first_byte{};
  TimePoint complete{};
  std::size_t bytes_received = 0;
  bool done = false;
};

struct PageLoadResult {
  bool complete = false;
  TimePoint started{};
  TimePoint finished{};
  Duration plt{};
  std::vector<ObjectTiming> objects;
};

class PageLoader {
 public:
  PageLoader(Simulator& sim, ClientSession& session, PageConfig config);

  // Connects and requests every object; on_done fires when the final byte
  // of the final object arrives.
  void start(std::function<void(const PageLoadResult&)> on_done = nullptr);

  const PageLoadResult& result() const { return result_; }
  bool finished() const { return result_.complete; }

 private:
  void issue_requests();
  // Returns false when the session could not open a stream for the request.
  bool request_object(std::size_t index);
  void on_object_complete();

  Simulator& sim_;
  ClientSession& session_;
  PageConfig config_;
  std::function<void(const PageLoadResult&)> on_done_;
  PageLoadResult result_;
  std::size_t next_to_issue_ = 0;
  std::size_t completed_ = 0;
};

}  // namespace longlook::http
