// Integration tests: split-connection TCP proxy and the QUIC proxy — data
// integrity through the relay, the 0-RTT penalty of the proxied path, and
// loss-recovery benefits on the split segments.
#include <gtest/gtest.h>

#include "harness/compare.h"
#include "harness/testbed.h"
#include "http/h2_session.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "proxy/quic_proxy.h"
#include "proxy/tcp_proxy.h"
#include "workload/executor.h"

namespace longlook {
namespace {

using namespace longlook::harness;

std::optional<double> proxied_tcp_load(const Scenario& scenario,
                                       std::size_t objects, std::size_t bytes,
                                       std::size_t* served = nullptr) {
  Testbed tb(scenario);
  http::TcpObjectServer server(tb.sim(), tb.server_host(), kTcpPort, {});
  proxy::TcpProxy proxy(tb.sim(), tb.mid_host(), kProxyPort,
                        tb.server_host().address(), kTcpPort, {});
  http::H2ClientSession session(tb.sim(), tb.client_host(),
                                tb.mid_host().address(), kProxyPort, {});
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({objects, bytes}));
  loader.start();
  const bool done =
      tb.run_until([&] { return loader.finished(); }, seconds(120));
  if (served != nullptr) *served = server.service().requests_served();
  if (!done) return std::nullopt;
  for (const auto& obj : loader.result().detail) {
    EXPECT_EQ(obj.download_bytes, bytes);
  }
  return to_seconds(loader.result().duration);
}

std::optional<double> proxied_quic_load(const Scenario& scenario,
                                        std::size_t objects,
                                        std::size_t bytes,
                                        quic::TokenCache& tokens) {
  Testbed tb(scenario);
  http::QuicObjectServer server(tb.sim(), tb.server_host(), kQuicPort, {});
  proxy::QuicProxy proxy(tb.sim(), tb.mid_host(), kProxyPort,
                         tb.server_host().address(), kQuicPort, {});
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.mid_host().address(), kProxyPort, {},
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({objects, bytes}));
  loader.start();
  const bool done =
      tb.run_until([&] { return loader.finished(); }, seconds(120));
  if (!done) return std::nullopt;
  for (const auto& obj : loader.result().detail) {
    EXPECT_EQ(obj.download_bytes, bytes);
  }
  return to_seconds(loader.result().duration);
}

TEST(TcpProxy, RelaysSingleObjectIntact) {
  Scenario s;
  s.rate_bps = 10'000'000;
  std::size_t served = 0;
  const auto plt = proxied_tcp_load(s, 1, 100 * 1024, &served);
  ASSERT_TRUE(plt.has_value());
  EXPECT_EQ(served, 1u);  // request reached the origin through the relay
}

TEST(TcpProxy, RelaysMultiplexedObjects) {
  Scenario s;
  s.rate_bps = 20'000'000;
  const auto plt = proxied_tcp_load(s, 20, 20 * 1024);
  ASSERT_TRUE(plt.has_value());
}

TEST(TcpProxy, SurvivesLossOnAccessLink) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.02;
  const auto plt = proxied_tcp_load(s, 1, 1024 * 1024);
  ASSERT_TRUE(plt.has_value());
}

TEST(TcpProxy, HelpsTcpUnderLoss) {
  // The paper's Fig. 17 effect: the proxy splits the control loop, so TCP
  // recovers loss on the short client-side segment and narrows the gap.
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.01;
  s.seed = 31;
  CompareOptions opts;
  const auto direct = run_tcp_page_load(s, {1, 2 * 1024 * 1024}, opts);
  const auto proxied = proxied_tcp_load(s, 1, 2 * 1024 * 1024);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(proxied.has_value());
  EXPECT_LT(*proxied, *direct * 1.10);  // at least comparable, usually better
}

TEST(QuicProxy, RelaysObjectsIntact) {
  Scenario s;
  s.rate_bps = 10'000'000;
  quic::TokenCache tokens;
  const auto plt = proxied_quic_load(s, 5, 50 * 1024, tokens);
  ASSERT_TRUE(plt.has_value());
}

TEST(QuicProxy, ColdPathCostsExtraRttForSmallObjects) {
  // Fig. 18: the unoptimized proxy cannot 0-RTT upstream, so even a warmed
  // client pays an extra round trip on small objects versus direct.
  Scenario s;
  s.rate_bps = 10'000'000;
  s.seed = 17;
  quic::TokenCache direct_tokens;
  quic::TokenCache proxy_tokens;
  CompareOptions opts;
  // Warm both client caches.
  (void)run_quic_page_load(s, {1, 1024}, opts, direct_tokens);
  (void)proxied_quic_load(s, 1, 1024, proxy_tokens);
  const auto direct = run_quic_page_load(s, {1, 10 * 1024}, opts,
                                         direct_tokens);
  const auto proxied = proxied_quic_load(s, 1, 10 * 1024, proxy_tokens);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(proxied.has_value());
  EXPECT_GT(*proxied, *direct);
}

TEST(QuicProxy, MultiplexedTransferThroughProxy) {
  Scenario s;
  s.rate_bps = 50'000'000;
  quic::TokenCache tokens;
  const auto plt = proxied_quic_load(s, 50, 10 * 1024, tokens);
  ASSERT_TRUE(plt.has_value());
}

}  // namespace
}  // namespace longlook
