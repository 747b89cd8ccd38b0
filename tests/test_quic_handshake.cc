// Integration tests: QUIC handshake robustness — handshake-message loss,
// token-cache behaviour, 0-RTT gating of application data, connection
// close, and stream-limit behaviour at the connection API level.
#include <gtest/gtest.h>

#include "harness/testbed.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "workload/executor.h"

namespace longlook {
namespace {

using namespace longlook::harness;
using workload::page_scenario;
using workload::ScenarioRunner;

struct Fixture {
  Scenario scenario;
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<http::QuicObjectServer> server;
  quic::TokenCache tokens;

  explicit Fixture(Scenario s = {}) : scenario(s) {
    tb = std::make_unique<Testbed>(scenario);
    server = std::make_unique<http::QuicObjectServer>(
        tb->sim(), tb->server_host(), kQuicPort, quic::QuicConfig{});
  }
  std::optional<double> load(std::size_t objects, std::size_t bytes,
                             quic::QuicConfig cfg = {}) {
    http::QuicClientSession session(tb->sim(), tb->client_host(),
                                    tb->server_host().address(), kQuicPort,
                                    cfg, tokens);
    ScenarioRunner loader(tb->sim(), session, page_scenario({objects, bytes}));
    loader.start();
    if (!tb->run_until([&] { return loader.finished(); }, seconds(120))) {
      return std::nullopt;
    }
    return to_seconds(loader.result().duration);
  }
};

TEST(QuicHandshake, SurvivesHeavyLossDuringSetup) {
  // 30% loss: CHLO / REJ / SHLO are frequently dropped; TLP+RTO must
  // recover the handshake and the connection must still establish.
  Scenario s;
  s.rate_bps = 5'000'000;
  s.loss_rate = 0.30;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Scenario round = s;
    round.seed = seed;
    Fixture f(round);
    const auto plt = f.load(1, 20 * 1024);
    EXPECT_TRUE(plt.has_value()) << "handshake never recovered, seed " << seed;
  }
}

TEST(QuicHandshake, TokenPersistsAcrossConnectionsOnOneCache) {
  Fixture f;
  (void)f.load(1, 1024);
  // Second connection on the same cache: server address is stable, so the
  // cached token triggers 0-RTT.
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  session.connect([] {});
  EXPECT_EQ(session.connection().stats().handshake_round_trips, 0u);
  EXPECT_TRUE(session.connection().established());
}

TEST(QuicHandshake, ClearedCacheFallsBackToOneRtt) {
  Fixture f;
  (void)f.load(1, 1024);
  f.tokens.clear();
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  session.connect([] {});
  EXPECT_EQ(session.connection().stats().handshake_round_trips, 1u);
  EXPECT_FALSE(session.connection().established());  // needs the REJ RTT
}

TEST(QuicHandshake, ZeroRttDisabledIgnoresToken) {
  Fixture f;
  (void)f.load(1, 1024);
  quic::QuicConfig no_0rtt;
  no_0rtt.enable_zero_rtt = false;
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  no_0rtt, f.tokens);
  session.connect([] {});
  EXPECT_EQ(session.connection().stats().handshake_round_trips, 1u);
}

TEST(QuicHandshake, NoDataLeavesBeforeHandshakePermitsIt) {
  // Without a token, a request written immediately after connect() must
  // not reach the server before the REJ round trip: the server must see
  // zero stream bytes for at least one full RTT (36 ms).
  Fixture f;
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  ScenarioRunner loader(f.tb->sim(), session, page_scenario({1, 1024}));
  loader.start();
  f.tb->sim().run_until(TimePoint{} + milliseconds(30));
  auto* sc = f.server->server().latest_connection();
  if (sc != nullptr) {
    EXPECT_EQ(sc->stats().stream_bytes_delivered, 0u);
  }
  ASSERT_TRUE(f.tb->run_until([&] { return loader.finished(); }, seconds(10)));
}

TEST(QuicHandshake, ZeroRttDataArrivesWithFirstFlight) {
  Fixture f;
  (void)f.load(1, 1024);  // warm the token
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  ScenarioRunner loader(f.tb->sim(), session, page_scenario({1, 1024}));
  const TimePoint start = f.tb->sim().now();
  loader.start();
  ASSERT_TRUE(f.tb->run_until([&] { return loader.finished(); }, seconds(10)));
  // One RTT (36 ms) for request+response plus margin: no setup round trip.
  EXPECT_LT(to_seconds(f.tb->sim().now() - start), 0.060);
}

TEST(QuicConnectionApi, StreamLimitExhaustionReturnsNull) {
  Fixture f;
  quic::QuicConfig cfg;
  cfg.max_streams = 2;
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  cfg, f.tokens);
  session.connect([] {});
  EXPECT_NE(session.connection().open_stream(), nullptr);
  EXPECT_NE(session.connection().open_stream(), nullptr);
  EXPECT_FALSE(session.connection().can_open_stream());
  EXPECT_EQ(session.connection().open_stream(), nullptr);
}

TEST(QuicConnectionApi, CloseStopsTraffic) {
  Fixture f;
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  ScenarioRunner loader(f.tb->sim(), session,
                        page_scenario({1, 10 * 1024 * 1024}));
  loader.start();
  f.tb->sim().run_until(TimePoint{} + milliseconds(200));
  session.connection().close();
  EXPECT_TRUE(session.connection().closed());
  const auto sent_at_close = session.connection().stats().packets_sent;
  f.tb->sim().run_until(TimePoint{} + milliseconds(600));
  EXPECT_EQ(session.connection().stats().packets_sent, sent_at_close);
  // The server learns of the close and stops as well (CONNECTION_CLOSE
  // reached it, or its retransmissions eventually give up sending to a
  // peer that no longer acks — here the close frame did arrive).
  auto* sc = f.server->server().latest_connection();
  ASSERT_NE(sc, nullptr);
  EXPECT_TRUE(sc->closed());
}

TEST(QuicConnectionApi, DuplicatePacketsDoNotDuplicateData) {
  // Force duplicates via heavy TLP/RTO activity: 20% loss on a small page.
  Scenario s;
  s.rate_bps = 2'000'000;
  s.loss_rate = 0.20;
  s.seed = 99;
  Fixture f(s);
  http::QuicClientSession session(f.tb->sim(), f.tb->client_host(),
                                  f.tb->server_host().address(), kQuicPort,
                                  {}, f.tokens);
  ScenarioRunner loader(f.tb->sim(), session, page_scenario({3, 50 * 1024}));
  loader.start();
  ASSERT_TRUE(f.tb->run_until([&] { return loader.finished(); }, seconds(300)));
  for (const auto& obj : loader.result().detail) {
    EXPECT_EQ(obj.download_bytes, 50u * 1024);  // exactly once, no more
  }
}

}  // namespace
}  // namespace longlook
