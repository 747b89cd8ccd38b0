// End-to-end QUIC integration tests: full client<->server transfers through
// the emulated testbed, covering handshake modes, multiplexing, loss
// recovery, flow control, and congestion behaviour.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace longlook
