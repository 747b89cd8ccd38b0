// End-to-end QUIC integration tests: full client<->server transfers through
// the emulated testbed, covering handshake modes, multiplexing, loss
// recovery, flow control, and congestion behaviour, plus the frozen wire
// bytes of multiplexed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "harness/compare.h"
#include "harness/testbed.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "workload/executor.h"

namespace longlook {
namespace {

using harness::Scenario;
using harness::Testbed;

struct QuicRun {
  std::optional<double> plt_s;
  quic::ConnectionId cid = 0;
  std::uint64_t handshake_rtts = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t spurious = 0;
  std::size_t server_cwnd = 0;
  CcState final_server_state = CcState::kInit;
  workload::ScenarioResult page;
};

QuicRun run_quic(const Scenario& scenario, std::size_t objects,
                 std::size_t bytes, quic::QuicConfig config,
                 quic::TokenCache& tokens,
                 Duration timeout = seconds(120)) {
  Testbed tb(scenario);
  http::QuicObjectServer server(tb.sim(), tb.server_host(), harness::kQuicPort,
                                config);
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(),
                                  harness::kQuicPort, config, tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({objects, bytes}));
  loader.start();
  const bool done =
      tb.run_until([&] { return loader.finished(); }, timeout);

  QuicRun out;
  out.page = loader.result();
  if (done) out.plt_s = to_seconds(loader.result().duration);
  out.cid = session.connection().connection_id();
  out.handshake_rtts = session.connection().stats().handshake_round_trips;
  if (auto* sc = server.server().latest_connection()) {
    out.packets_lost = sc->stats().packets_declared_lost;
    out.spurious = sc->stats().spurious_losses;
    out.server_cwnd = sc->congestion_window();
    out.final_server_state = sc->send_algorithm().tracker().state();
  }
  return out;
}

TEST(QuicE2E, SingleSmallObjectCompletes) {
  Scenario s;
  s.rate_bps = 10'000'000;
  quic::TokenCache tokens;
  const QuicRun run = run_quic(s, 1, 10 * 1024, {}, tokens);
  ASSERT_TRUE(run.plt_s.has_value());
  // 36 ms RTT, 1-RTT handshake (fresh token), small body: well under 1 s.
  EXPECT_LT(*run.plt_s, 1.0);
  EXPECT_EQ(run.page.detail[0].download_bytes, 10 * 1024u);
}

TEST(QuicE2E, FirstConnectionPaysOneRttResumptionZero) {
  Scenario s;
  s.rate_bps = 10'000'000;
  quic::TokenCache tokens;
  const QuicRun first = run_quic(s, 1, 5 * 1024, {}, tokens);
  ASSERT_TRUE(first.plt_s.has_value());
  EXPECT_EQ(first.handshake_rtts, 1u);

  const QuicRun second = run_quic(s, 1, 5 * 1024, {}, tokens);
  ASSERT_TRUE(second.plt_s.has_value());
  EXPECT_EQ(second.handshake_rtts, 0u);
  // 0-RTT shaves roughly one RTT (36 ms) off the PLT.
  EXPECT_LT(*second.plt_s, *first.plt_s);
  EXPECT_NEAR(*first.plt_s - *second.plt_s, 0.036, 0.015);
}

TEST(QuicE2E, LargeObjectAtHighBandwidth) {
  Scenario s;
  s.rate_bps = 100'000'000;
  quic::TokenCache tokens;
  const QuicRun run = run_quic(s, 1, 10 * 1024 * 1024, {}, tokens);
  ASSERT_TRUE(run.plt_s.has_value());
  // 10 MB at 100 Mbps is ~0.84 s of serialisation; allow ramp-up slack.
  EXPECT_LT(*run.plt_s, 3.0);
  const double goodput_mbps = 10.0 * 8.0 * 1024 * 1024 / *run.plt_s / 1e6;
  EXPECT_GT(goodput_mbps, 40.0);
}

TEST(QuicE2E, MultiplexesManyObjectsWithoutHolBlocking) {
  Scenario s;
  s.rate_bps = 20'000'000;
  quic::TokenCache tokens;
  const QuicRun run = run_quic(s, 50, 20 * 1024, {}, tokens);
  ASSERT_TRUE(run.plt_s.has_value());
  for (const auto& obj : run.page.detail) {
    EXPECT_EQ(obj.download_bytes, 20 * 1024u);
  }
}

TEST(QuicE2E, RecoversFromHeavyLoss) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.02;
  quic::TokenCache tokens;
  const QuicRun run = run_quic(s, 1, 1024 * 1024, {}, tokens);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 1024 * 1024u);
  EXPECT_GT(run.packets_lost, 0u);
}

TEST(QuicE2E, JitterReorderingCausesSpuriousLossesWithFixedNack) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);  // paper: 112 ms RTT for Fig. 10
  s.jitter = milliseconds(10);
  quic::TokenCache tokens;
  quic::QuicConfig cfg;
  const QuicRun run = run_quic(s, 1, 5 * 1024 * 1024, cfg, tokens,
                               seconds(300));
  ASSERT_TRUE(run.plt_s.has_value());
  // netem-style jitter reorders deeper than the NACK threshold of 3:
  // QUIC must be declaring losses that later prove spurious.
  EXPECT_GT(run.packets_lost, 0u);
  EXPECT_GT(run.spurious, 0u);
}

TEST(QuicE2E, AdaptiveNackSuppressesSpuriousLossUnderReordering) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);
  s.jitter = milliseconds(10);
  quic::TokenCache fixed_tokens;
  quic::TokenCache adaptive_tokens;
  quic::QuicConfig fixed_cfg;
  quic::QuicConfig adaptive_cfg;
  adaptive_cfg.loss_mode = quic::LossDetectionMode::kAdaptiveNack;
  const QuicRun fixed =
      run_quic(s, 1, 5 * 1024 * 1024, fixed_cfg, fixed_tokens, seconds(300));
  const QuicRun adaptive = run_quic(s, 1, 5 * 1024 * 1024, adaptive_cfg,
                                    adaptive_tokens, seconds(300));
  ASSERT_TRUE(fixed.plt_s.has_value());
  ASSERT_TRUE(adaptive.plt_s.has_value());
  // Adapting the threshold (RR-TCP style) must reduce false losses and
  // improve completion time (Fig. 10's lesson).
  EXPECT_LT(adaptive.packets_lost, fixed.packets_lost);
  EXPECT_LT(*adaptive.plt_s, *fixed.plt_s);
}

TEST(QuicE2E, MacwCapsThroughput) {
  Scenario s;
  s.rate_bps = 100'000'000;
  quic::TokenCache tokens_small;
  quic::TokenCache tokens_big;
  quic::QuicConfig small_cfg;
  small_cfg.version = quic::public_release_profile();  // MACW=107 + bug
  quic::QuicConfig big_cfg;                            // MACW=430
  const QuicRun small =
      run_quic(s, 1, 10 * 1024 * 1024, small_cfg, tokens_small);
  const QuicRun big = run_quic(s, 1, 10 * 1024 * 1024, big_cfg, tokens_big);
  ASSERT_TRUE(small.plt_s.has_value());
  ASSERT_TRUE(big.plt_s.has_value());
  // The uncalibrated public config takes notably longer (Fig. 2 shows ~2x).
  EXPECT_GT(*small.plt_s, *big.plt_s * 1.3);
}

TEST(QuicE2E, ServerReachesCaMaxedOnUncappedLink) {
  Scenario s;
  s.rate_bps = 0;  // unlimited: cwnd should hit the MACW ceiling
  quic::TokenCache tokens;
  quic::QuicConfig cfg;
  const QuicRun run = run_quic(s, 1, 50 * 1024 * 1024, cfg, tokens);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_GE(run.server_cwnd,
            cfg.version.macw_packets * kDefaultMss * 9 / 10);
}

TEST(QuicE2E, MspcOneSerialisesRequests) {
  Scenario s;
  s.rate_bps = 20'000'000;
  quic::TokenCache tokens_default;
  quic::TokenCache tokens_one;
  quic::QuicConfig one_cfg;
  one_cfg.max_streams = 1;
  const QuicRun multi = run_quic(s, 20, 50 * 1024, {}, tokens_default);
  const QuicRun serial = run_quic(s, 20, 50 * 1024, one_cfg, tokens_one);
  ASSERT_TRUE(multi.plt_s.has_value());
  ASSERT_TRUE(serial.plt_s.has_value());
  // MSPC=1 forces sequential requests: substantially worse PLT (Sec. 5.2).
  EXPECT_GT(*serial.plt_s, *multi.plt_s * 1.5);
}

// FNV-1a over every datagram one host puts on the access link, in send
// order: its virtual send time, then its wire bytes. With the count it
// fingerprints which packets went out, when, and what they carried.
struct WireDigest {
  std::uint64_t hash = 14695981039346656037ull;
  std::uint64_t datagrams = 0;

  void add(const Packet& p, TimePoint at) {
    auto mix = [this](std::uint8_t byte) {
      hash = (hash ^ byte) * 1099511628211ull;
    };
    const std::int64_t ns = at.time_since_epoch().count();
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<std::uint8_t>((ns >> shift) & 0xff));
    }
    for (std::uint8_t byte : p.data) mix(byte);
    ++datagrams;
  }
  bool operator==(const WireDigest&) const = default;
};

std::ostream& operator<<(std::ostream& os, const WireDigest& d) {
  return os << "{" << d.hash << "ull, " << d.datagrams << "}";
}

// Client and server datagram digests of one scenario run from a cold token
// cache. Every upstream hop is lossless and uncapped, so the access link's
// enqueue events see every datagram each host sends.
std::pair<WireDigest, WireDigest> wire_digests(const Scenario& scenario,
                                               workload::ScenarioSpec spec,
                                               const quic::QuicConfig& config) {
  Testbed tb(scenario);
  WireDigest client;
  WireDigest server;
  tb.uplink().set_tap([&](LinkEvent ev, const Packet& p, TimePoint at) {
    if (ev == LinkEvent::kEnqueued) client.add(p, at);
  });
  tb.downlink().set_tap([&](LinkEvent ev, const Packet& p, TimePoint at) {
    if (ev == LinkEvent::kEnqueued) server.add(p, at);
  });
  quic::TokenCache tokens;
  http::QuicObjectServer objects(tb.sim(), tb.server_host(),
                                 harness::kQuicPort, config);
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(),
                                  harness::kQuicPort, config, tokens);
  workload::ScenarioRunner runner(tb.sim(), session, std::move(spec));
  runner.start();
  EXPECT_TRUE(tb.run_until([&] { return runner.finished(); }, seconds(600)));
  return {client, server};
}

// The multiplexing order is part of the model: which stream's bytes fill
// each packet decides what a loss stalls. These digests were recorded
// before the connection's per-stream walks moved onto its live-stream set;
// any drift means the send path changed behaviour. Cases: round robin and
// stream-limit queueing with loss, the same under time-threshold loss
// detection, and stream churn on one connection, where a loss requeue
// revives streams that had already finished.
TEST(QuicE2E, MultiplexedWireBytesAreFrozen) {
  struct Case {
    std::string name;
    workload::ScenarioSpec spec;
    quic::LossDetectionMode loss_mode = quic::LossDetectionMode::kFixedNack;
    WireDigest client;
    WireDigest server;
  };
  const auto churn =
      workload::parse_scenario("*200:0:-:128:1024;*200:1:-:128:1024;");
  ASSERT_TRUE(churn.ok()) << churn.error;
  const Case cases[] = {
      {"page 50x10KiB mspc 8", workload::page_scenario({50, 10 * 1024}),
       quic::LossDetectionMode::kFixedNack, {6611305639201587112ull, 241},
       {12960385034384259456ull, 404}},
      {"page 50x10KiB mspc 8 time-loss",
       workload::page_scenario({50, 10 * 1024}),
       quic::LossDetectionMode::kTimeThreshold, {11444862872771054814ull, 241},
       {6847972715720028642ull, 404}},
      {"churn 2x200", *churn.spec, quic::LossDetectionMode::kFixedNack,
       {17882430850201226663ull, 804},
       {1711269729311174486ull, 423}},
  };
  for (const Case& c : cases) {
    Scenario s;
    s.rate_bps = 10'000'000;
    s.loss_rate = 0.01;
    s.seed = 7;
    quic::QuicConfig config;
    config.max_streams = 8;
    config.loss_mode = c.loss_mode;
    const auto [client, server] = wire_digests(s, c.spec, config);
    EXPECT_EQ(client, c.client) << c.name;
    EXPECT_EQ(server, c.server) << c.name;
  }
}

// Per-packet stream work follows the live streams, not every stream ever
// opened: over 4000 closed-loop transactions on one connection (four chains
// of 128 B requests and 1 KiB responses), neither side's live-stream set
// grows past a few streams beyond the four in flight.
TEST(QuicE2E, LiveStreamSetStaysSmallUnderStreamChurn) {
  const auto spec = workload::parse_scenario(
      "*1000:0:-:128:1024;*1000:1:-:128:1024;"
      "*1000:2:-:128:1024;*1000:3:-:128:1024;");
  ASSERT_TRUE(spec.ok()) << spec.error;
  Scenario s;
  s.rate_bps = 10'000'000;
  Testbed tb(s);
  quic::TokenCache tokens;
  http::QuicObjectServer objects(tb.sim(), tb.server_host(),
                                 harness::kQuicPort, {});
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(),
                                  harness::kQuicPort, {}, tokens);
  workload::ScenarioRunner runner(tb.sim(), session, *spec.spec);
  std::size_t max_client = 0;
  std::size_t max_server = 0;
  std::size_t samples = 0;
  PeriodicTimer sampler(tb.sim(), milliseconds(1), [&] {
    ++samples;
    max_client =
        std::max(max_client, session.connection().live_stream_count());
    if (const auto* c = objects.server().latest_connection()) {
      max_server = std::max(max_server, c->live_stream_count());
    }
  });
  runner.start();
  ASSERT_TRUE(tb.run_until([&] { return runner.finished(); }, seconds(600)));
  EXPECT_EQ(runner.result().transactions, 4000u);
  EXPECT_GT(samples, 1000u);
  EXPECT_LE(max_client, 8u);
  EXPECT_LE(max_server, 8u);
}

}  // namespace
}  // namespace longlook
