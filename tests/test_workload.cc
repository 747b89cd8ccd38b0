// Workload scenario DSL tests: parser grammar + file:col diagnostics,
// start-after cycle rejection, the parse → format → parse round-trip
// property, the PRF request handling in ObjectService (including the
// exactly-once response regression), and the ScenarioRunner executor over
// both real stacks and a synchronous fake session (completion-inside-
// callback reentrancy, failed stream opens), page loads (resource timings,
// stream-limit queueing, the object service's GET handling), and the frozen
// PLT and work of page loads that the harness run path rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/perf.h"
#include "harness/testbed.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "obs/profiler.h"
#include "util/rng.h"
#include "workload/executor.h"
#include "workload/scenario.h"

namespace longlook::workload {
namespace {

// --- Parser ----------------------------------------------------------------

TEST(ScenarioParser, ParsesSingleEntry) {
  const ParseResult r = parse_scenario("*1:0:-:397:5000000;");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.spec->streams.size(), 1u);
  const StreamSpec& s = r.spec->streams[0];
  EXPECT_EQ(s.repeat, 1u);
  EXPECT_EQ(s.stream_id, 0u);
  EXPECT_FALSE(s.start_after.has_value());
  EXPECT_EQ(s.upload_bytes, 397u);
  EXPECT_EQ(s.download_bytes, 5000000u);
  EXPECT_FALSE(s.is_page());
}

TEST(ScenarioParser, ParsesDependentEntries) {
  const ParseResult r = parse_scenario("*1:0:-:397:5000;*1:4:0:432:4999;");
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.spec->streams.size(), 2u);
  EXPECT_FALSE(r.spec->streams[0].start_after.has_value());
  ASSERT_TRUE(r.spec->streams[1].start_after.has_value());
  EXPECT_EQ(*r.spec->streams[1].start_after, 0u);
  EXPECT_EQ(r.spec->total_transactions(), 2u);
  EXPECT_EQ(r.spec->total_download_bytes(), 5000u + 4999u);
  EXPECT_EQ(r.spec->total_upload_bytes(), 397u + 432u);
}

TEST(ScenarioParser, ParsesPageReferences) {
  const ParseResult named = parse_scenario("*2:0:-:page=many_small;");
  ASSERT_TRUE(named.ok()) << named.error;
  ASSERT_TRUE(named.spec->streams[0].is_page());
  EXPECT_EQ(named.spec->streams[0].page->object_count, 100u);
  EXPECT_EQ(named.spec->streams[0].page_ref, "many_small");

  const ParseResult sized = parse_scenario("*1:0:-:page=10x10240;");
  ASSERT_TRUE(sized.ok()) << sized.error;
  EXPECT_EQ(sized.spec->streams[0].page->object_count, 10u);
  EXPECT_EQ(sized.spec->streams[0].page->object_bytes, 10240u);
  EXPECT_EQ(sized.spec->total_download_bytes(), 10u * 10240u);
}

TEST(ScenarioParser, SkipsWhitespaceBetweenTokens) {
  const ParseResult r =
      parse_scenario("  *1 : 0 : - : 10 : 20 ;\n *1:1:0:0:5;");
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.spec->streams.size(), 2u);
}

TEST(ScenarioParser, ErrorsCarryLabelAndColumn) {
  // Column 1: the text does not begin with '*'.
  EXPECT_EQ(parse_scenario("x", "wl.scn").error.rfind("wl.scn:1:", 0), 0u);
  // Empty input is its own diagnostic.
  EXPECT_NE(parse_scenario("").error.find("empty scenario"),
            std::string::npos);
  // Missing fields name what was expected.
  const std::string missing = parse_scenario("*1:0:-:397;").error;
  EXPECT_NE(missing.find("after upload byte count"), std::string::npos);
}

TEST(ScenarioParser, RejectsMalformedAndOverflowingNumbers) {
  const std::string overflow =
      parse_scenario("*1:0:-:99999999999999999999:1;").error;
  EXPECT_NE(overflow.find("99999999999999999999"), std::string::npos)
      << overflow;
  EXPECT_NE(overflow.find("out of range"), std::string::npos);
  EXPECT_FALSE(parse_scenario("*0:0:-:1:1;").ok());  // repeat must be >= 1
  EXPECT_FALSE(parse_scenario("*a:0:-:1:1;").ok());
}

TEST(ScenarioParser, RejectsDuplicateStreamIds) {
  const std::string err = parse_scenario("*1:0:-:1:1;*1:0:-:1:1;").error;
  EXPECT_NE(err.find("duplicate stream id 0"), std::string::npos) << err;
}

TEST(ScenarioParser, RejectsUndeclaredStartAfter) {
  const std::string err = parse_scenario("*1:0:9:1:1;").error;
  EXPECT_NE(err.find("undeclared stream 9"), std::string::npos) << err;
}

TEST(ScenarioParser, RejectsSelfReference) {
  const std::string err = parse_scenario("*1:0:0:1:1;").error;
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST(ScenarioParser, RejectsStartAfterCycles) {
  // 0 -> 1 -> 2 -> 0.
  const std::string err =
      parse_scenario("*1:0:1:1:1;*1:1:2:1:1;*1:2:0:1:1;").error;
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
  // A diamond (both children wait on one parent) is NOT a cycle.
  EXPECT_TRUE(parse_scenario("*1:0:-:1:1;*1:1:0:1:1;*1:2:0:1:1;").ok());
  // Forward references are fine: dependencies come from the graph, not the
  // text order.
  EXPECT_TRUE(parse_scenario("*1:0:5:1:1;*1:5:-:1:1;").ok());
}

TEST(ScenarioParser, RejectsUnknownPageGraph) {
  const std::string err = parse_scenario("*1:0:-:page=nope;").error;
  EXPECT_NE(err.find("unknown page graph 'nope'"), std::string::npos) << err;
}

// --- parse → format → parse round-trip property ----------------------------

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  const std::size_t n = 1 + rng.uniform_int(5);
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    StreamSpec s;
    s.repeat = 1 + rng.uniform_int(4);
    s.stream_id = i * 4 + rng.uniform_int(3);  // unique, not contiguous
    if (!ids.empty() && rng.uniform_int(2) == 0) {
      // Earlier entries only: acyclic by construction.
      s.start_after = ids[rng.uniform_int(ids.size())];
    }
    if (rng.uniform_int(4) == 0) {
      const std::uint64_t count = 1 + rng.uniform_int(4);
      const std::uint64_t bytes = 1 + rng.uniform_int(100000);
      s.page_ref = std::to_string(count) + "x" + std::to_string(bytes);
      s.page = PageGraph{static_cast<std::size_t>(count),
                         static_cast<std::size_t>(bytes)};
    } else {
      s.upload_bytes = rng.uniform_int(1000000);
      s.download_bytes = rng.uniform_int(1000000);
    }
    ids.push_back(s.stream_id);
    spec.streams.push_back(std::move(s));
  }
  return spec;
}

TEST(ScenarioRoundTrip, FormatParsesBackToIdenticalAst) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const ScenarioSpec spec = random_spec(rng);
    const std::string text = spec.format();
    const ParseResult reparsed = parse_scenario(text);
    ASSERT_TRUE(reparsed.ok()) << text << " -> " << reparsed.error;
    EXPECT_EQ(*reparsed.spec, spec) << text;
    // format() is canonical: a second round trip is a fixed point.
    EXPECT_EQ(reparsed.spec->format(), text);
  }
}

TEST(ScenarioRoundTrip, NamedPageRefsSurviveFormatting) {
  const ParseResult r = parse_scenario("*1:0:-:page=small;*1:1:0:5:6;");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.spec->format(), "*1:0:-:page=small;*1:1:0:5:6;");
  const ParseResult again = parse_scenario(r.spec->format());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again.spec, *r.spec);
}

TEST(ScenarioRoundTrip, PageScenarioIsTheOneEntryPageLoad) {
  const ScenarioSpec spec = page_scenario({10, 10240});
  EXPECT_EQ(spec.format(), "*1:0:-:page=10x10240;");
  const ParseResult r = parse_scenario(spec.format());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(*r.spec, spec);
}

}  // namespace
}  // namespace longlook::workload

namespace longlook::http {
namespace {

// --- ObjectService: PRF requests + exactly-once response regression --------

// Minimal in-memory AppStream: records writes, delivers injected data.
class FakeAppStream : public AppStream {
 public:
  void write(BytesView data, bool fin) override {
    bytes_written += data.size();
    if (fin) ++fin_writes;
    ++writes;
  }
  void set_on_data(std::function<void(BytesView, bool)> fn) override {
    on_data = std::move(fn);
  }
  std::uint64_t id() const override { return 1; }

  void deliver(std::string_view text, bool fin) {
    on_data(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()),
                      text.size()),
            fin);
  }

  std::function<void(BytesView, bool)> on_data;
  std::size_t bytes_written = 0;
  int writes = 0;
  int fin_writes = 0;
};

TEST(ObjectServicePerf, RegressionFinAfterGetDoesNotRespondTwice) {
  // Regression (fails pre-fix): a delivery arriving after the GET line was
  // handled — here the client's bare fin, exactly what a transport delivers
  // when a scenario client half-closes — re-found the '\n' in the
  // accumulated buffer and responded a second time on the same stream.
  Simulator sim;
  ObjectService svc(sim);
  FakeAppStream stream;
  svc.serve(stream, nullptr);
  stream.deliver("GET /obj0 10\n", false);
  EXPECT_EQ(svc.requests_served(), 1u);
  const std::size_t after_first = stream.bytes_written;
  stream.deliver("", true);
  EXPECT_EQ(svc.requests_served(), 1u);  // pre-fix: 2
  EXPECT_EQ(stream.bytes_written, after_first);
  EXPECT_EQ(stream.fin_writes, 1);
}

TEST(ObjectServicePerf, RespondsAfterFullUploadBody) {
  Simulator sim;
  ObjectService svc(sim);
  FakeAppStream stream;
  svc.serve(stream, nullptr);
  stream.deliver("PRF 50 6\n", false);
  EXPECT_EQ(svc.requests_served(), 0u);  // body outstanding
  stream.deliver("abc", false);
  EXPECT_EQ(svc.requests_served(), 0u);
  stream.deliver("def", true);
  EXPECT_EQ(svc.requests_served(), 1u);
  EXPECT_EQ(svc.upload_bytes_received(), 6u);
  EXPECT_EQ(stream.bytes_written, 50u);
  EXPECT_EQ(stream.fin_writes, 1);
  // Nothing after the response — not even another fin.
  stream.deliver("", true);
  EXPECT_EQ(svc.requests_served(), 1u);
  EXPECT_EQ(stream.bytes_written, 50u);
}

TEST(ObjectServicePerf, HeaderSplitAcrossDeliveries) {
  Simulator sim;
  ObjectService svc(sim);
  FakeAppStream stream;
  svc.serve(stream, nullptr);
  stream.deliver("PRF 1", false);
  stream.deliver("2 3\nab", false);  // header completes; 2 body bytes ride
  EXPECT_EQ(svc.requests_served(), 0u);
  stream.deliver("c", true);
  EXPECT_EQ(svc.requests_served(), 1u);
  EXPECT_EQ(svc.upload_bytes_received(), 3u);
  EXPECT_EQ(stream.bytes_written, 12u);
}

TEST(ObjectServicePerf, ZeroUploadRespondsAtFin) {
  Simulator sim;
  ObjectService svc(sim);
  FakeAppStream stream;
  svc.serve(stream, nullptr);
  stream.deliver("PRF 7 0\n", true);
  EXPECT_EQ(svc.requests_served(), 1u);
  EXPECT_EQ(stream.bytes_written, 7u);
}

}  // namespace
}  // namespace longlook::http

namespace longlook::workload {
namespace {

// --- Executor over a synchronous fake session -------------------------------

// Streams that deliver the whole response (1 byte + fin) synchronously
// inside write(): every completion — including the parent completion that
// triggers a dependent entry — happens inside the caller's own event
// callback, the reentrancy shape from PR 2.
class EchoStream : public http::AppStream {
 public:
  void write(BytesView, bool) override {
    if (!responded_) {
      responded_ = true;
      const std::uint8_t byte = 0;
      on_data_(BytesView(&byte, 1), true);
    }
  }
  void set_on_data(std::function<void(BytesView, bool)> fn) override {
    on_data_ = std::move(fn);
  }
  std::uint64_t id() const override { return 1; }

 private:
  std::function<void(BytesView, bool)> on_data_;
  bool responded_ = false;
};

class EchoSession : public http::ClientSession {
 public:
  void connect(std::function<void()> on_ready) override { on_ready(); }
  http::AppStream* open_stream() override {
    streams_.push_back(std::make_unique<EchoStream>());
    ++opened;
    return streams_.back().get();
  }
  bool can_open_stream() const override { return true; }
  void flush() override {}
  const char* protocol_name() const override { return "echo"; }

  int opened = 0;

 private:
  std::vector<std::unique_ptr<EchoStream>> streams_;
};

TEST(ScenarioRunnerReentrancy, DependentEntryStartsExactlyOnce) {
  // Parent (stream 0) completes synchronously inside its own write() call;
  // both dependents must start exactly once each, and the whole chain runs
  // to completion without extra streams.
  Simulator sim;
  EchoSession session;
  const ParseResult r =
      parse_scenario("*1:0:-:0:1;*2:1:0:0:1;*1:2:0:0:1;*1:3:1:0:1;");
  ASSERT_TRUE(r.ok()) << r.error;
  ScenarioRunner runner(sim, session, *r.spec);
  runner.start();
  EXPECT_TRUE(runner.finished());
  // 1 (stream 0) + 2 (stream 1 repeats) + 1 (stream 2) + 1 (stream 3):
  // one transport stream per transaction, no double starts.
  EXPECT_EQ(session.opened, 5);
  EXPECT_EQ(runner.result().transactions, 5u);
}

// A session that advertises a free slot but fails its first `failures`
// opens (transport not ready), then opens EchoStreams.
class StuckSession : public EchoSession {
 public:
  explicit StuckSession(int failures) : failures_(failures) {}
  http::AppStream* open_stream() override {
    if (failures_ == 0) return EchoSession::open_stream();
    --failures_;
    return nullptr;
  }

 private:
  int failures_ = 0;
};

TEST(ScenarioRunnerHardening, NullStreamWithFreeSlotDoesNotSpin) {
  // Every open fails: start() must return (pre-fix: infinite issue loop)
  // with nothing issued.
  Simulator sim;
  StuckSession stuck(/*failures=*/1000);
  ScenarioRunner runner(sim, stuck, page_scenario({3, 100}));
  runner.start();
  EXPECT_FALSE(runner.finished());
  EXPECT_TRUE(runner.result().detail.empty());

  // One open fails: that request stays queued, so the next pump (the second
  // entry's start) issues the whole page in object order and completes.
  StuckSession once(/*failures=*/1);
  const ParseResult r = parse_scenario("*1:0:-:page=3x100;*1:1:-:0:1;");
  ASSERT_TRUE(r.ok()) << r.error;
  ScenarioRunner recovered(sim, once, *r.spec);
  recovered.start();
  ASSERT_TRUE(recovered.finished());
  const std::vector<TransactionTiming>& d = recovered.result().detail;
  ASSERT_EQ(d.size(), 4u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(d[i].stream_id, 0u);
    EXPECT_EQ(d[i].object_index, i);
  }
}

// --- Executor over the real stacks ------------------------------------------

struct QuicFixture {
  explicit QuicFixture(const quic::QuicConfig& config = {})
      : server(tb.sim(), tb.server_host(), harness::kQuicPort, config),
        session(tb.sim(), tb.client_host(), tb.server_host().address(),
                harness::kQuicPort, config, tokens) {}

  harness::Scenario scenario;
  harness::Testbed tb{scenario};
  http::QuicObjectServer server;
  quic::TokenCache tokens;
  http::QuicClientSession session;
};

TEST(ScenarioRunnerQuic, DependentStreamWaitsForParent) {
  QuicFixture f;
  const ParseResult r = parse_scenario("*1:0:-:100:2000;*1:4:0:0:1000;");
  ASSERT_TRUE(r.ok()) << r.error;
  ScenarioRunner runner(f.tb.sim(), f.session, *r.spec);
  runner.start();
  ASSERT_TRUE(f.tb.run_until([&] { return runner.finished(); }, seconds(30)));
  const ScenarioResult& res = runner.result();
  EXPECT_EQ(res.transactions, 2u);
  EXPECT_EQ(res.download_bytes, 3000u);
  EXPECT_EQ(res.upload_bytes, 100u);
  EXPECT_EQ(f.server.service().upload_bytes_received(), 100u);
  // The dependent transaction was issued no earlier than the parent's
  // completion.
  ASSERT_EQ(res.detail.size(), 2u);
  const TransactionTiming& parent = res.detail[0];
  const TransactionTiming& child = res.detail[1];
  EXPECT_EQ(parent.stream_id, 0u);
  EXPECT_EQ(child.stream_id, 4u);
  EXPECT_GE(child.issued, parent.completed);
}

TEST(ScenarioRunnerQuic, RepeatedTransactionsRunSequentially) {
  QuicFixture f;
  const ParseResult r = parse_scenario("*3:0:-:0:500;");
  ASSERT_TRUE(r.ok()) << r.error;
  ScenarioRunner runner(f.tb.sim(), f.session, *r.spec);
  runner.start();
  ASSERT_TRUE(f.tb.run_until([&] { return runner.finished(); }, seconds(30)));
  const ScenarioResult& res = runner.result();
  ASSERT_EQ(res.detail.size(), 3u);
  for (std::size_t i = 1; i < res.detail.size(); ++i) {
    EXPECT_GE(res.detail[i].issued, res.detail[i - 1].completed);
  }
  EXPECT_EQ(res.download_bytes, 1500u);
}

TEST(ScenarioRunnerQuic, PageEntryFetchesWholeGraph) {
  QuicFixture f;
  const ParseResult r = parse_scenario("*1:0:-:page=3x1000;");
  ASSERT_TRUE(r.ok()) << r.error;
  ScenarioRunner runner(f.tb.sim(), f.session, *r.spec);
  runner.start();
  ASSERT_TRUE(f.tb.run_until([&] { return runner.finished(); }, seconds(30)));
  EXPECT_EQ(runner.result().transactions, 3u);
  EXPECT_EQ(runner.result().download_bytes, 3000u);
  EXPECT_EQ(f.server.service().requests_served(), 3u);
}

// The object service's GET handling, driven by one-object page loads.
TEST(ObjectService, ServesRequestedSize) {
  QuicFixture f;
  ScenarioRunner loader(f.tb.sim(), f.session, page_scenario({1, 123456}));
  loader.start();
  ASSERT_TRUE(f.tb.run_until([&] { return loader.finished(); }, seconds(30)));
  EXPECT_EQ(loader.result().detail[0].download_bytes, 123456u);
  EXPECT_EQ(f.server.service().requests_served(), 1u);
}

TEST(ObjectService, ZeroByteObject) {
  QuicFixture f;
  ScenarioRunner loader(f.tb.sim(), f.session, page_scenario({1, 0}));
  loader.start();
  ASSERT_TRUE(f.tb.run_until([&] { return loader.finished(); }, seconds(30)));
  EXPECT_EQ(loader.result().detail[0].download_bytes, 0u);
}

TEST(ObjectService, LargeObjectServedIncrementally) {
  // Above the chunking threshold: the pump path must still deliver exactly
  // the requested byte count.
  QuicFixture f;
  ScenarioRunner loader(f.tb.sim(), f.session,
                        page_scenario({1, 5 * 1024 * 1024}));
  loader.start();
  ASSERT_TRUE(f.tb.run_until([&] { return loader.finished(); }, seconds(60)));
  EXPECT_EQ(loader.result().detail[0].download_bytes, 5u * 1024 * 1024);
}

TEST(ObjectService, ServiceDelayDefersFirstByte) {
  QuicFixture f;
  f.server.service().set_service_delay(milliseconds(500), milliseconds(500),
                                       1);
  ScenarioRunner loader(f.tb.sim(), f.session, page_scenario({1, 1000}));
  loader.start();
  ASSERT_TRUE(f.tb.run_until([&] { return loader.finished(); }, seconds(30)));
  const TransactionTiming& obj = loader.result().detail[0];
  EXPECT_GE(to_seconds(obj.first_byte - obj.issued), 0.5);
}

TEST(ScenarioRunnerPage, ResourceTimingsAreOrderedAndComplete) {
  QuicFixture f;
  ScenarioRunner runner(f.tb.sim(), f.session, page_scenario({10, 5000}));
  bool done_cb = false;
  runner.start([&](const ScenarioResult& r) {
    done_cb = true;
    EXPECT_TRUE(r.complete);
  });
  ASSERT_TRUE(f.tb.run_until([&] { return runner.finished(); }, seconds(30)));
  EXPECT_TRUE(done_cb);
  const ScenarioResult& r = runner.result();
  ASSERT_EQ(r.detail.size(), 10u);
  for (std::size_t i = 0; i < r.detail.size(); ++i) {
    const TransactionTiming& obj = r.detail[i];
    EXPECT_EQ(obj.object_index, i);  // issue order is object order
    EXPECT_TRUE(obj.done);
    EXPECT_EQ(obj.download_bytes, 5000u);
    EXPECT_LE(obj.issued, obj.first_byte);
    EXPECT_LE(obj.first_byte, obj.completed);
    EXPECT_LE(obj.completed, r.finished);
  }
  EXPECT_EQ(r.duration, r.finished - r.started);
}

TEST(ScenarioRunnerPage, QueuesBeyondStreamLimit) {
  quic::QuicConfig cfg;
  cfg.max_streams = 4;  // MSPC 4: 12 objects need three waves
  QuicFixture f(cfg);
  ScenarioRunner runner(f.tb.sim(), f.session, page_scenario({12, 2000}));
  runner.start();
  ASSERT_TRUE(f.tb.run_until([&] { return runner.finished(); }, seconds(30)));
  const std::vector<TransactionTiming>& d = runner.result().detail;
  ASSERT_EQ(d.size(), 12u);
  for (const TransactionTiming& obj : d) {
    EXPECT_EQ(obj.download_bytes, 2000u);
  }
  // The fifth request waited for a slot to free up.
  EXPECT_GE(d[4].issued, std::min({d[0].completed, d[1].completed,
                                   d[2].completed, d[3].completed}));
}

// --- Harness scenario path ---------------------------------------------------

TEST(HarnessScenario, QuicAndTcpRunsComplete) {
  harness::Scenario net;
  net.rate_bps = 10'000'000;
  const ParseResult r = parse_scenario("*2:0:-:64:2048;*1:4:0:0:1000;");
  ASSERT_TRUE(r.ok()) << r.error;
  harness::CompareOptions opts;
  opts.warm_zero_rtt = false;
  quic::TokenCache tokens;
  const auto q = harness::run_quic_scenario(net, *r.spec, opts, tokens);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->transactions, 3u);
  EXPECT_EQ(q->download_bytes, 2u * 2048u + 1000u);
  EXPECT_GT(q->duration_s, 0.0);
  const auto t = harness::run_tcp_scenario(net, *r.spec, opts);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->transactions, 3u);
  EXPECT_EQ(t->download_bytes, 2u * 2048u + 1000u);
}

// --- Page loads as page entries --------------------------------------------

// A run's simulator work: sim_events, timer_ops, sim_event_pool_slots,
// sim_callback_heap, packets_forwarded and bytes_moved, in that order.
using Work = std::vector<std::uint64_t>;

Work profiled_work(const obs::Profiler& prof) {
  const obs::ProfilerSnapshot snap = prof.snapshot();
  Work out;
  for (const char* key :
       {"sim_events", "timer_ops", "sim_event_pool_slots",
        "sim_callback_heap", "packets_forwarded", "bytes_moved"}) {
    out.push_back(snap.counter(key));
  }
  return out;
}

// `page` as a page entry over a hand-built testbed (the harness's wiring,
// spelled out): its PLT in ns and its work, folded as the harness folds it.
template <typename Server, typename Session, typename... Tokens>
std::pair<std::int64_t, Work> hand_built_run(const harness::Scenario& net,
                                             const harness::Workload& page,
                                             Port port, const auto& config,
                                             Tokens&... tokens) {
  harness::Testbed tb(net);
  Server server(tb.sim(), tb.server_host(), port, config);
  Session session(tb.sim(), tb.client_host(), tb.server_host().address(),
                  port, config, tokens...);
  ScenarioRunner runner(tb.sim(), session, page_scenario(page));
  runner.start();
  EXPECT_TRUE(tb.run_until([&] { return runner.finished(); }, seconds(600)));
  obs::Profiler prof;
  harness::fold_profile_counters(&prof, tb);
  return {runner.result().duration.count(), profiled_work(prof)};
}

// A harness page load, the same page as a `page=NxB` scenario entry, and a
// hand-built page-entry run are one run, on clean and lossy paths, for
// pages narrower and wider than the stream limit. All three reproduce the
// frozen PLT and work below, recorded from the standalone page loader that
// page entries replaced (same requests, same stream-limit queueing): any
// drift means the page-load path changed behaviour.
TEST(HarnessScenario, PageLoadMatchesPageEntryRun) {
  struct Case {
    double loss = 0;
    std::size_t objects = 0;
    std::size_t bytes = 0;
    std::int64_t quic_plt_ns = 0;
    Work quic_work;
    std::int64_t tcp_plt_ns = 0;
    Work tcp_work;
  };
  const Case cases[] = {
      {0.0, 1, 5 * 1024, 36059989, {26, 44, 8, 0, 5, 5472},
       144185956, {71, 153, 11, 0, 15, 11085}},
      {0.0, 10, 100 * 1024, 875993640, {7517, 11435, 68, 0, 1176, 1097032},
       1022374812, {5419, 7833, 67, 0, 1097, 1099422}},
      {0.0, 200, 10 * 1024, 1746216610, {15998, 26225, 132, 0, 2606, 2217786},
       1885145825, {11674, 23695, 116, 0, 2365, 2208649}},
      {0.01, 1, 5 * 1024, 36059989, {26, 44, 8, 0, 5, 5472},
       144185956, {71, 153, 11, 0, 15, 11085}},
      {0.01, 10, 100 * 1024, 920061730, {9060, 13179, 68, 0, 1477, 1128559},
       1107329855, {6278, 9042, 116, 0, 1272, 1115991}},
      {0.01, 200, 10 * 1024, 1774751464, {19983, 31120, 132, 0, 3256, 2285939},
       2257286935, {13639, 25518, 116, 0, 2809, 2248683}},
  };
  for (const Case& c : cases) {
    harness::Scenario net;
    net.rate_bps = 10'000'000;
    net.loss_rate = c.loss;
    net.seed = 31;
    const std::string where = "loss=" + std::to_string(c.loss) + " page=" +
                              std::to_string(c.objects) + "x" +
                              std::to_string(c.bytes);
    const ParseResult r =
        parse_scenario("*1:0:-:page=" + std::to_string(c.objects) + "x" +
                       std::to_string(c.bytes) + ";");
    ASSERT_TRUE(r.ok()) << r.error;
    const harness::Workload page{c.objects, c.bytes};

    harness::CompareOptions opts;
    quic::TokenCache warm;
    (void)harness::run_quic_page_load(net, {1, 1024}, opts, warm);

    // QUIC, every run from the same post-warm token cache.
    quic::TokenCache hand_tokens = warm;
    const auto q_hand =
        hand_built_run<http::QuicObjectServer, http::QuicClientSession>(
            net, page, harness::kQuicPort, opts.quic, hand_tokens);
    obs::Profiler load_prof;
    obs::Profiler entry_prof;
    opts.profiler = &load_prof;
    quic::TokenCache load_tokens = warm;
    const auto q_load =
        harness::run_quic_page_load(net, page, opts, load_tokens);
    opts.profiler = &entry_prof;
    quic::TokenCache entry_tokens = warm;
    const auto q_entry =
        harness::run_quic_scenario(net, *r.spec, opts, entry_tokens);
    ASSERT_TRUE(q_load && q_entry) << where;
    const double quic_plt_s = to_seconds(Duration(c.quic_plt_ns));
    EXPECT_EQ(q_hand, std::make_pair(c.quic_plt_ns, c.quic_work)) << where;
    EXPECT_EQ(*q_load, quic_plt_s) << where;
    EXPECT_EQ(q_entry->duration_s, quic_plt_s) << where;
    EXPECT_EQ(profiled_work(load_prof), c.quic_work) << where;
    EXPECT_EQ(profiled_work(entry_prof), c.quic_work) << where;

    // TCP.
    const auto t_hand =
        hand_built_run<http::TcpObjectServer, http::H2ClientSession>(
            net, page, harness::kTcpPort, opts.tcp);
    obs::Profiler tcp_load_prof;
    obs::Profiler tcp_entry_prof;
    opts.profiler = &tcp_load_prof;
    const auto t_load = harness::run_tcp_page_load(net, page, opts);
    opts.profiler = &tcp_entry_prof;
    const auto t_entry = harness::run_tcp_scenario(net, *r.spec, opts);
    ASSERT_TRUE(t_load && t_entry) << where;
    const double tcp_plt_s = to_seconds(Duration(c.tcp_plt_ns));
    EXPECT_EQ(t_hand, std::make_pair(c.tcp_plt_ns, c.tcp_work)) << where;
    EXPECT_EQ(*t_load, tcp_plt_s) << where;
    EXPECT_EQ(t_entry->duration_s, tcp_plt_s) << where;
    EXPECT_EQ(profiled_work(tcp_load_prof), c.tcp_work) << where;
    EXPECT_EQ(profiled_work(tcp_entry_prof), c.tcp_work) << where;
  }
}

TEST(HarnessScenario, CompareCellIsWorkerCountIndependent) {
  // The bench-level LL_JOBS determinism contract, pinned at unit level:
  // identical CellResult (PLTs + folded metrics) from a 1-worker and a
  // 4-worker sweep.
  const ParseResult r = parse_scenario("*2:0:-:32:1024;");
  ASSERT_TRUE(r.ok()) << r.error;
  harness::Scenario net;
  net.rate_bps = 10'000'000;
  harness::CompareOptions opts;
  opts.rounds = 3;
  auto run_with = [&](int jobs) {
    harness::SweepRunner runner(jobs);
    harness::CellResult out;
    harness::compare_scenario_async(runner, net, *r.spec, opts, &out);
    runner.wait_all();
    return out;
  };
  const harness::CellResult a = run_with(1);
  const harness::CellResult b = run_with(4);
  EXPECT_EQ(a.quic_plt_s, b.quic_plt_s);
  EXPECT_EQ(a.tcp_plt_s, b.tcp_plt_s);
  EXPECT_EQ(a.metrics.to_json(), b.metrics.to_json());
}

}  // namespace
}  // namespace longlook::workload
