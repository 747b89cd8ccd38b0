// Header-only adapter over workload::ScenarioRunner, kept only because
// perfbench/traced.cc still names it: perfbench/ changes only together with
// the benchmark, and this header goes away in that change. New code runs
// workload::page_scenario({N, B}) through a ScenarioRunner directly.
#pragma once

#include "workload/executor.h"

namespace longlook::http {

using PageConfig = workload::PageGraph;

struct ObjectTiming {
  bool done = false;
  std::uint64_t bytes_received = 0;
};

struct PageLoadResult {
  Duration plt{};
  std::vector<ObjectTiming> objects;  // filled when the page completes
};

class PageLoader {
 public:
  PageLoader(Simulator& sim, ClientSession& session, PageConfig config)
      : runner_(sim, session, workload::page_scenario(config)) {}
  void start() {
    runner_.start([this](const workload::ScenarioResult& r) {
      result_.plt = r.duration;
      for (const workload::TransactionTiming& t : r.detail) {
        result_.objects.push_back({t.done, t.download_bytes});
      }
    });
  }
  bool finished() const { return runner_.finished(); }
  const PageLoadResult& result() const { return result_; }

 private:
  workload::ScenarioRunner runner_;
  PageLoadResult result_;
};

}  // namespace longlook::http
