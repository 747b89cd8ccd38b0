// Unit tests: the packet-trace tap — event accounting, delay and reorder
// statistics, capacity bounding, and text rendering; plus an end-to-end
// check that a traced QUIC transfer's audit agrees with the link counters.
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "net/trace.h"
#include "workload/executor.h"

namespace longlook {
namespace {

Packet probe(std::size_t bytes) {
  Packet p;
  p.src = 1;
  p.dst = 2;
  p.src_port = 1000;
  p.dst_port = 443;
  p.data = Bytes(bytes, 0);
  return p;
}

TEST(PacketTrace, CountsEveryEventClass) {
  Simulator sim;
  LinkConfig cfg;
  cfg.rate_bps = 1'000'000;
  cfg.queue_limit_bytes = 5 * 1400;
  cfg.loss_rate = 0.0;
  DirectionalLink link(sim, cfg, [](Packet&&) {});
  PacketTrace trace(link);
  for (int i = 0; i < 50; ++i) link.send(probe(1400));
  sim.run();
  const TraceSummary s = trace.summarize();
  EXPECT_EQ(s.enqueued, 50u);
  EXPECT_GT(s.dropped_queue, 0u);
  EXPECT_EQ(s.delivered + s.dropped_queue + s.dropped_random, 50u);
  EXPECT_NEAR(s.drop_rate,
              static_cast<double>(s.dropped_queue) / 50.0, 1e-9);
}

TEST(PacketTrace, MeasuresDelayAndReordering) {
  Simulator sim;
  LinkConfig cfg;
  cfg.base_delay = milliseconds(20);
  cfg.jitter = milliseconds(8);
  cfg.seed = 5;
  DirectionalLink link(sim, cfg, [](Packet&&) {});
  PacketTrace trace(link);
  for (int i = 0; i < 400; ++i) {
    sim.schedule(microseconds(i * 150), [&link] { link.send(probe(500)); });
  }
  sim.run();
  const TraceSummary s = trace.summarize();
  EXPECT_EQ(s.delivered, 400u);
  EXPECT_NEAR(s.mean_delay_ms, 20.0, 3.0);
  EXPECT_GT(s.max_delay_ms, 20.0);
  EXPECT_GT(s.reordered, 0u);  // jitter reorders (the netem artifact)
  EXPECT_GE(s.max_reorder_depth, 1u);
  EXPECT_EQ(s.reordered, link.stats().delivered_out_of_order);
}

TEST(PacketTrace, CapacityBoundsRecordsButNotCounters) {
  Simulator sim;
  LinkConfig cfg;
  DirectionalLink link(sim, cfg, [](Packet&&) {});
  PacketTrace trace(link, /*capacity=*/10);
  for (int i = 0; i < 100; ++i) link.send(probe(100));
  sim.run();
  EXPECT_EQ(trace.records().size(), 10u);
  EXPECT_EQ(trace.summarize().enqueued, 100u);
  EXPECT_EQ(trace.summarize().delivered, 100u);
}

TEST(PacketTrace, TextRenderingContainsFiveTuple) {
  Simulator sim;
  LinkConfig cfg;
  DirectionalLink link(sim, cfg, [](Packet&&) {});
  PacketTrace trace(link);
  link.send(probe(700));
  sim.run();
  const std::string text = trace.to_text();
  EXPECT_NE(text.find("ENQUEUE"), std::string::npos);
  EXPECT_NE(text.find("DELIVER"), std::string::npos);
  EXPECT_NE(text.find("1:1000 > 2:443"), std::string::npos);
  EXPECT_NE(text.find("owd="), std::string::npos);
}

TEST(PacketTrace, AuditsAFullQuicTransfer) {
  harness::Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 12;
  harness::Testbed tb(s);
  PacketTrace down_trace(tb.downlink());
  http::QuicObjectServer server(tb.sim(), tb.server_host(),
                                harness::kQuicPort, quic::QuicConfig{});
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(),
                                  harness::kQuicPort, quic::QuicConfig{},
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({1, 1024 * 1024}));
  loader.start();
  ASSERT_TRUE(tb.run_until([&] { return loader.finished(); }, seconds(60)));
  const TraceSummary sum = down_trace.summarize();
  // The trace agrees with the link's own statistics.
  EXPECT_EQ(sum.delivered, tb.downlink().stats().delivered);
  EXPECT_EQ(sum.dropped_random, tb.downlink().stats().dropped_random);
  // The transfer's downlink carried at least the object itself.
  EXPECT_GT(sum.delivered * kMtuBytes, 1024u * 1024);
  // Loss was configured: the trace saw it.
  EXPECT_GT(sum.dropped_random, 0u);
  // One-way delay = 8 ms base propagation plus TBF queueing at 10 Mbps.
  EXPECT_GE(sum.mean_delay_ms, 8.0);
  EXPECT_GE(sum.max_delay_ms, sum.mean_delay_ms);
}

}  // namespace
}  // namespace longlook
