#include "workload/executor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/logging.h"

namespace longlook::workload {

namespace {
// Mirrors the server's response pump (http::ObjectService::respond): large
// uploads are produced incrementally against the transport write backlog so
// a bulk upload never sits in one buffer.
constexpr std::size_t kUploadChunk = 512 * 1024;
constexpr std::size_t kUploadBacklogLimit = 2 * 1024 * 1024;
}  // namespace

ScenarioRunner::ScenarioRunner(Simulator& sim, http::ClientSession& session,
                               ScenarioSpec spec)
    : sim_(sim), session_(session), spec_(std::move(spec)) {
  entries_.resize(spec_.streams.size());
}

void ScenarioRunner::start(
    std::function<void(const ScenarioResult&)> on_done) {
  on_done_ = std::move(on_done);
  result_.started = sim_.now();
  session_.connect([this] { start_ready_entries(); });
}

void ScenarioRunner::start_ready_entries() {
  for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
    if (!spec_.streams[i].start_after) start_entry(i);
  }
}

void ScenarioRunner::start_entry(std::size_t idx) {
  EntryState& e = entries_[idx];
  if (e.started) return;  // exactly-once, even from reentrant completions
  e.started = true;
  enqueue_repetition(idx, 0);
}

void ScenarioRunner::enqueue_repetition(std::size_t idx, std::uint64_t rep) {
  const StreamSpec& s = spec_.streams[idx];
  if (s.is_page()) {
    entries_[idx].page_done = 0;
    for (std::size_t obj = 0; obj < s.page->object_count; ++obj) {
      pending_.push_back({idx, rep, obj});
    }
  } else {
    pending_.push_back({idx, rep, 0});
  }
  pump_issue_queue();
}

void ScenarioRunner::pump_issue_queue() {
  // Completion callbacks can reenter here (a synchronous transport delivers
  // the response inside write()); fold reentrant pumps into the outer loop
  // instead of recursing.
  if (pumping_) {
    pump_again_ = true;
    return;
  }
  pumping_ = true;
  do {
    pump_again_ = false;
    while (!pending_.empty() && session_.can_open_stream()) {
      const PendingRequest req = pending_.front();
      pending_.pop_front();
      if (!issue(req)) {
        // A free slot whose open fails (transport not ready): keep the
        // request queued and stop, so this loop cannot spin.
        pending_.push_front(req);
        break;
      }
    }
  } while (pump_again_);
  pumping_ = false;
  session_.flush();
}

bool ScenarioRunner::issue(const PendingRequest& req) {
  http::AppStream* stream = session_.open_stream();
  if (stream == nullptr) return false;
  const StreamSpec& s = spec_.streams[req.entry];
  result_.detail.push_back({});
  // Capture the slot index, not a reference: `detail` reallocates while
  // transactions are in flight.
  const std::size_t slot = result_.detail.size() - 1;
  TransactionTiming& t = result_.detail[slot];
  t.stream_id = s.stream_id;
  t.repetition = req.repetition;
  t.object_index = req.object_index;
  t.issued = sim_.now();
  if (!s.is_page()) t.upload_bytes = s.upload_bytes;

  const std::size_t idx = req.entry;
  stream->set_on_data([this, idx, slot](BytesView data, bool fin) {
    TransactionTiming& timing = result_.detail[slot];
    if (timing.download_bytes == 0 && !data.empty()) {
      timing.first_byte = sim_.now();
    }
    timing.download_bytes += data.size();
    if (fin && !timing.done) {
      timing.done = true;
      timing.completed = sim_.now();
      on_transaction_complete(idx, timing);
    }
  });

  if (s.is_page()) {
    // The object request the paper's PLT cells measure.
    const std::string request =
        "GET /obj" + std::to_string(req.object_index) + " " +
        std::to_string(s.page->object_bytes) + "\n";
    stream->write(
        BytesView(reinterpret_cast<const std::uint8_t*>(request.data()),
                  request.size()),
        /*fin=*/false);
  } else {
    const std::string header = "PRF " + std::to_string(s.download_bytes) +
                               " " + std::to_string(s.upload_bytes) + "\n";
    write_upload(*stream, header, s.upload_bytes);
  }
  return true;
}

void ScenarioRunner::write_upload(http::AppStream& stream,
                                  const std::string& header,
                                  std::uint64_t upload_bytes) {
  stream.write(
      BytesView(reinterpret_cast<const std::uint8_t*>(header.data()),
                header.size()),
      /*fin=*/upload_bytes == 0);
  if (upload_bytes == 0) return;
  if (upload_bytes <= 2 * kUploadChunk) {
    Bytes body(static_cast<std::size_t>(upload_bytes), 0);
    stream.write(body, /*fin=*/true);
    return;
  }
  auto remaining = std::make_shared<std::uint64_t>(upload_bytes);
  auto pump = std::make_shared<std::function<void()>>();
  // The pump must not capture its own shared_ptr (that cycle never frees);
  // each scheduled event holds the strong reference instead, so the pump
  // dies with its last pending event.
  std::weak_ptr<std::function<void()>> weak_pump = pump;
  http::AppStream* sp = &stream;
  *pump = [this, sp, remaining, weak_pump] {
    bool wrote = false;
    while (*remaining > 0 && sp->write_backlog() < kUploadBacklogLimit) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kUploadChunk, *remaining));
      Bytes chunk(n, 0);
      *remaining -= n;
      sp->write(chunk, /*fin=*/*remaining == 0);
      wrote = true;
    }
    if (wrote) session_.flush();
    if (*remaining > 0) {
      if (auto self = weak_pump.lock()) {
        sim_.schedule(milliseconds(2),
                      [self, token = std::weak_ptr<char>(live_token_)] {
                        if (token.expired()) return;
                        (*self)();
                      });
      }
    }
  };
  (*pump)();
}

void ScenarioRunner::on_transaction_complete(std::size_t idx,
                                             TransactionTiming& timing) {
  ++result_.transactions;
  result_.upload_bytes += timing.upload_bytes;
  result_.download_bytes += timing.download_bytes;
  EntryState& e = entries_[idx];
  const StreamSpec& s = spec_.streams[idx];
  if (s.is_page()) {
    ++e.page_done;
    if (e.page_done < s.page->object_count) {
      pump_issue_queue();
      return;
    }
  }
  ++e.reps_done;
  if (e.reps_done < s.repeat) {
    enqueue_repetition(idx, e.reps_done);
    return;
  }
  on_entry_complete(idx);
}

void ScenarioRunner::on_entry_complete(std::size_t idx) {
  entries_[idx].done = true;
  const std::uint64_t id = spec_.streams[idx].stream_id;
  // Dependent entries start now — exactly once even when this fires inside
  // the parent's transport delivery callback (the `started` flag, not the
  // call site, carries the guarantee).
  for (std::size_t j = 0; j < spec_.streams.size(); ++j) {
    if (spec_.streams[j].start_after && *spec_.streams[j].start_after == id) {
      start_entry(j);
    }
  }
  for (const EntryState& e : entries_) {
    if (!e.done) {
      pump_issue_queue();
      return;
    }
  }
  result_.complete = true;
  result_.finished = sim_.now();
  result_.duration = result_.finished - result_.started;
  if (on_done_) on_done_(result_);
}

}  // namespace longlook::workload
