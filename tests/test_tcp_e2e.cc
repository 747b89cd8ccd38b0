// End-to-end TCP(+TLS)+HTTP/2 integration tests through the emulated
// testbed: handshake cost, bulk transfer, loss recovery, DSACK reordering
// adaptation, and HOL blocking behaviour.
#include <gtest/gtest.h>

#include "harness/compare.h"
#include "harness/testbed.h"
#include "http/h2_session.h"
#include "http/object_service.h"
#include "tcp/endpoint.h"
#include "workload/executor.h"

namespace longlook {
namespace {

using harness::Scenario;
using harness::Testbed;

struct TcpRun {
  std::optional<double> plt_s;
  tcp::TcpStats client_stats;
  tcp::TcpStats server_stats;
  std::size_t server_dupthresh = 3;
  workload::ScenarioResult page;
};

TcpRun run_tcp(const Scenario& scenario, std::size_t objects,
               std::size_t bytes, tcp::TcpConfig config = {},
               Duration timeout = seconds(120)) {
  Testbed tb(scenario);
  http::TcpObjectServer server(tb.sim(), tb.server_host(), harness::kTcpPort,
                               config);
  http::H2ClientSession session(tb.sim(), tb.client_host(),
                                tb.server_host().address(), harness::kTcpPort,
                                config);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({objects, bytes}));
  loader.start();
  const bool done = tb.run_until([&] { return loader.finished(); }, timeout);

  TcpRun out;
  out.page = loader.result();
  if (done) out.plt_s = to_seconds(loader.result().duration);
  out.client_stats = session.connection().stats();
  if (auto* sc = server.server().latest_connection()) {
    out.server_stats = sc->stats();
    out.server_dupthresh = sc->dupthresh();
  }
  return out;
}

TEST(TcpE2E, SingleSmallObjectCompletes) {
  Scenario s;
  s.rate_bps = 10'000'000;
  const TcpRun run = run_tcp(s, 1, 10 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 10 * 1024u);
  // TCP+TLS needs 3 round trips (~108 ms) before the request leaves.
  EXPECT_GT(*run.plt_s, 0.1);
  EXPECT_LT(*run.plt_s, 1.0);
}

TEST(TcpE2E, HandshakeCostsThreeRtts) {
  Scenario s;
  s.rate_bps = 10'000'000;
  const TcpRun run = run_tcp(s, 1, 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.client_stats.handshake_round_trips, 3u);
  // 4 RTTs total (3 setup + 1 request/response) at 36 ms: >= 0.14 s.
  EXPECT_GE(*run.plt_s, 0.14);
}

TEST(TcpE2E, TlsDisabledIsOneRttFaster) {
  Scenario s;
  s.rate_bps = 10'000'000;
  tcp::TcpConfig no_tls;
  no_tls.tls_enabled = false;
  const TcpRun with_tls = run_tcp(s, 1, 1024);
  const TcpRun without = run_tcp(s, 1, 1024, no_tls);
  ASSERT_TRUE(with_tls.plt_s.has_value());
  ASSERT_TRUE(without.plt_s.has_value());
  // The TLS model costs 2 RTT = 72 ms.
  EXPECT_NEAR(*with_tls.plt_s - *without.plt_s, 0.072, 0.03);
}

TEST(TcpE2E, LargeObjectAtHighBandwidth) {
  Scenario s;
  s.rate_bps = 100'000'000;
  const TcpRun run = run_tcp(s, 1, 10 * 1024 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_LT(*run.plt_s, 3.0);
  const double goodput_mbps = 10.0 * 8.0 * 1024 * 1024 / *run.plt_s / 1e6;
  EXPECT_GT(goodput_mbps, 40.0);
}

TEST(TcpE2E, RecoversFromLoss) {
  Scenario s;
  s.rate_bps = 10'000'000;
  s.loss_rate = 0.02;
  const TcpRun run = run_tcp(s, 1, 1024 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 1024 * 1024u);
  EXPECT_GT(run.server_stats.retransmitted_segments, 0u);
}

TEST(TcpE2E, SendBufferHoldsOnlyUnacknowledgedBytes) {
  // The server produces a large body against a ~2 MB write backlog and
  // acknowledged bytes leave the send buffer, so the buffer stays far below
  // the object size even with retransmissions, and empties at the end.
  Scenario s;
  s.rate_bps = 100'000'000;
  s.loss_rate = 0.01;
  constexpr std::size_t kBytes = 20 * 1024 * 1024;
  Testbed tb(s);
  http::TcpObjectServer server(tb.sim(), tb.server_host(), harness::kTcpPort,
                               tcp::TcpConfig{});
  http::H2ClientSession session(tb.sim(), tb.client_host(),
                                tb.server_host().address(), harness::kTcpPort,
                                tcp::TcpConfig{});
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({1, kBytes}));
  loader.start();
  std::size_t peak = 0;
  const bool done = tb.run_until(
      [&] {
        if (const auto* sc = server.server().latest_connection()) {
          peak = std::max(peak, sc->send_buffered());
        }
        return loader.finished();
      },
      seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(loader.result().detail[0].download_bytes, kBytes);
  const auto* sc = server.server().latest_connection();
  ASSERT_NE(sc, nullptr);
  EXPECT_GT(sc->stats().retransmitted_segments, 0u);
  EXPECT_GT(peak, 0u);
  EXPECT_LT(peak, kBytes / 2);
  EXPECT_LT(sc->send_buffered(), 64u * 1024);
}

// Synthetic bodies are all zero, so a send buffer that returned the wrong
// block would still deliver the right bytes. This upload is patterned (each
// 4-byte word holds its index) and crosses 1% loss, so retransmissions read
// back from every part of the buffer, and the server checks every byte.
TEST(TcpE2E, PatternedUploadArrivesExactlyUnderLoss) {
  Scenario s;
  s.rate_bps = 100'000'000;
  s.loss_rate = 0.01;
  constexpr std::size_t kBytes = 3 * 1024 * 1024 + 123;
  Bytes upload(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) {
    upload[i] = static_cast<std::uint8_t>((i / 4) >> (8 * (i % 4)));
  }
  Testbed tb(s);
  tcp::TcpServer server(tb.sim(), tb.server_host(), harness::kTcpPort, {});
  Bytes received;
  bool fin = false;
  server.set_accept_handler([&](tcp::TcpConnection& conn) {
    conn.set_on_data([&](BytesView data, bool is_fin) {
      received.insert(received.end(), data.begin(), data.end());
      fin = fin || is_fin;
    });
  });
  tcp::TcpClient client(tb.sim(), tb.client_host(),
                        tb.server_host().address(), harness::kTcpPort, {});
  client.connect([&] {
    // Uneven writes, so write boundaries fall inside send-buffer blocks.
    for (std::size_t at = 0; at < kBytes;) {
      const std::size_t n = std::min<std::size_t>(100'003, kBytes - at);
      client.connection().write(BytesView(upload).subspan(at, n),
                                at + n == kBytes);
      at += n;
    }
    client.connection().flush();
  });
  ASSERT_TRUE(tb.run_until([&] { return fin; }, seconds(120)));
  EXPECT_GT(client.connection().stats().retransmitted_segments, 0u);
  ASSERT_EQ(received.size(), kBytes);
  EXPECT_TRUE(received == upload);
}

TEST(TcpE2E, MultipleObjectsShareOneConnection) {
  Scenario s;
  s.rate_bps = 20'000'000;
  const TcpRun run = run_tcp(s, 20, 50 * 1024);
  ASSERT_TRUE(run.plt_s.has_value());
  for (const auto& obj : run.page.detail) {
    EXPECT_EQ(obj.download_bytes, 50 * 1024u);
  }
  // HTTP/2 over TCP: exactly one connection on the server.
}

TEST(TcpE2E, DsackAdaptsDupthreshUnderReordering) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);
  s.jitter = milliseconds(10);
  const TcpRun run = run_tcp(s, 1, 5 * 1024 * 1024, {}, seconds(300));
  ASSERT_TRUE(run.plt_s.has_value());
  // Reordering must have taught the sender a deeper threshold (RR-TCP).
  EXPECT_GT(run.server_dupthresh, 3u);
}

TEST(TcpE2E, ReorderingRobustnessBeatsNaiveConfig) {
  Scenario s;
  s.rate_bps = 20'000'000;
  s.extra_rtt = milliseconds(76);
  s.jitter = milliseconds(10);
  tcp::TcpConfig no_dsack;
  no_dsack.dsack_enabled = false;
  const TcpRun adaptive = run_tcp(s, 1, 5 * 1024 * 1024, {}, seconds(300));
  const TcpRun fixed = run_tcp(s, 1, 5 * 1024 * 1024, no_dsack, seconds(300));
  ASSERT_TRUE(adaptive.plt_s.has_value());
  ASSERT_TRUE(fixed.plt_s.has_value());
  EXPECT_LE(*adaptive.plt_s, *fixed.plt_s * 1.05);
  EXPECT_LE(adaptive.server_stats.retransmitted_segments,
            fixed.server_stats.retransmitted_segments);
}

TEST(TcpE2E, SurvivesBlackoutViaRto) {
  Scenario s;
  s.rate_bps = 5'000'000;
  s.loss_rate = 0.30;  // brutal loss: forces RTO paths, must still finish
  const TcpRun run = run_tcp(s, 1, 200 * 1024, {}, seconds(600));
  ASSERT_TRUE(run.plt_s.has_value());
  EXPECT_EQ(run.page.detail[0].download_bytes, 200 * 1024u);
}

}  // namespace
}  // namespace longlook
