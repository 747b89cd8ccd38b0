// ScenarioRunner: executes a parsed scenario over any http::ClientSession
// (QUIC or TCP/H2), measuring what the quicperf protocol reports: total
// duration, transaction count, and bytes moved in each direction. It is the
// testbed's only application driver and request writer: a page load is
// page_scenario({N, B}), whose duration is the paper's PLT and `detail` its
// resource timings; video segments are on-demand fetch() requests.
//
// Execution semantics:
//   * entries with start-after "-" begin as soon as the session is ready
//     and run concurrently (MSPC-limited, queueing on the stream limit);
//   * an entry's N repetitions run sequentially — request/response
//     ping-pong — each on a fresh transport stream;
//   * an entry with start-after=M begins when entry M completes (all of
//     M's repetitions); the start fires exactly once even when the parent
//     completes inside the same transport event callback (the PR 2
//     fin-before-on_data reentrancy class);
//   * page entries request all their objects in parallel against the
//     stream limit, in object order, the repetition completing with the
//     last object's final byte;
//   * an empty spec completes at connect; fetch() requests join the same
//     stream-slot queue and count toward the totals and `detail`.
//
// Uploads ride the PRF request ("PRF <download> <upload>\n" + body; see
// http::ObjectService); large bodies are produced incrementally against
// the transport's write backlog, mirroring the server's sendfile-style
// pump, so a 100 MB upload never sits in one buffer.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "http/app_stream.h"
#include "sim/simulator.h"
#include "workload/scenario.h"

namespace longlook::workload {

struct TransactionTiming {
  std::uint64_t stream_id = 0;     // DSL stream id of the owning entry
  std::uint64_t repetition = 0;    // 0-based
  std::uint64_t object_index = 0;  // page entries: object within the graph
  TimePoint issued{};
  TimePoint first_byte{};
  TimePoint completed{};
  std::uint64_t upload_bytes = 0;    // request body bytes (headers excluded)
  std::uint64_t download_bytes = 0;  // response bytes received
  bool done = false;
};

struct ScenarioResult {
  bool complete = false;
  TimePoint started{};
  TimePoint finished{};
  Duration duration{};
  std::uint64_t transactions = 0;    // completed transactions
  std::uint64_t upload_bytes = 0;    // totals over completed transactions
  std::uint64_t download_bytes = 0;
  std::vector<TransactionTiming> detail;
};

class ScenarioRunner {
 public:
  // `session` must outlive the runner; the runner must outlive the
  // simulation (its stream callbacks reference it, so it is not copyable).
  ScenarioRunner(Simulator& sim, http::ClientSession& session,
                 ScenarioSpec spec);
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  // Connects and begins executing; on_done fires when every entry has
  // completed all its repetitions (at connect, for an empty spec).
  void start(std::function<void(const ScenarioResult&)> on_done = nullptr);

  // Once the session is ready, requests object `object_index` (`bytes` long)
  // as a page object; on_complete fires at the response's final byte.
  void fetch(std::uint64_t object_index, std::uint64_t bytes,
             std::function<void()> on_complete);

  const ScenarioResult& result() const { return result_; }
  bool finished() const { return result_.complete; }

 private:
  struct EntryState {
    bool started = false;  // exactly-once start guard
    bool done = false;
    std::uint64_t reps_done = 0;
    // Objects completed in the current repetition of a page entry.
    std::size_t page_done = 0;
  };
  // One queued request waiting for a stream slot; fetch() sets on_fetched.
  struct PendingRequest {
    std::size_t entry = 0;
    std::uint64_t repetition = 0;
    std::uint64_t object_index = 0;  // page entries and fetches only
    std::uint64_t object_bytes = 0;  // page entries and fetches only
    std::function<void()> on_fetched;
  };

  void start_ready_entries();
  void start_entry(std::size_t idx);
  void enqueue_repetition(std::size_t idx, std::uint64_t rep);
  void pump_issue_queue();
  bool issue(PendingRequest& req);  // false: no stream slot, req untouched
  void write_upload(http::AppStream& stream, const std::string& header,
                    std::uint64_t upload_bytes);
  void on_transaction_complete(std::size_t idx, TransactionTiming& timing,
                               const std::function<void()>& on_fetched);
  void on_entry_complete(std::size_t idx);
  void complete();

  Simulator& sim_;
  http::ClientSession& session_;
  const ScenarioSpec spec_;
  std::function<void(const ScenarioResult&)> on_done_;
  ScenarioResult result_;
  std::vector<EntryState> entries_;
  std::deque<PendingRequest> pending_;
  bool pumping_ = false;
  bool pump_again_ = false;
  // Liveness token for deferred upload-pump callbacks: a scheduled chunk
  // write must become a no-op if the runner is destroyed first.
  std::shared_ptr<char> live_token_ = std::make_shared<char>(0);
};

}  // namespace longlook::workload
