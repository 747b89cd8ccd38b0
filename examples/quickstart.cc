// Quickstart: stand up the paper's testbed (client — router — server),
// fetch one page over QUIC, and print the page load time plus transport
// statistics. Start here to see the public API end to end.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "harness/testbed.h"
#include "http/object_service.h"
#include "http/quic_session.h"
#include "workload/executor.h"

using namespace longlook;

int main() {
  // 1. Describe the network: a 10 Mbps bottleneck with 1% random loss on
  //    the access link (everything else defaults to the paper's testbed:
  //    36 ms base RTT, calibrated router buffer).
  harness::Scenario scenario;
  scenario.name = "quickstart";
  scenario.rate_bps = 10'000'000;
  scenario.loss_rate = 0.01;
  scenario.seed = 1;

  // 2. Build the testbed and start a calibrated QUIC server on it.
  harness::Testbed tb(scenario);
  http::QuicObjectServer server(tb.sim(), tb.server_host(),
                                harness::kQuicPort, quic::QuicConfig{});

  // 3. Connect a client and load a page of 10 x 100 KB objects — the
  //    one-entry workload scenario `*1:0:-:page=10x102400;`. The token
  //    cache is empty, so this first connection pays QUIC's 1-RTT setup;
  //    keep the cache around and the next connection would be 0-RTT.
  quic::TokenCache tokens;
  http::QuicClientSession session(tb.sim(), tb.client_host(),
                                  tb.server_host().address(),
                                  harness::kQuicPort, quic::QuicConfig{},
                                  tokens);
  workload::ScenarioRunner loader(tb.sim(), session,
                                  workload::page_scenario({10, 100 * 1024}));
  loader.start();

  // 4. Run the virtual clock until the page completes.
  if (!tb.run_until([&] { return loader.finished(); }, seconds(60))) {
    std::printf("page load did not complete\n");
    return 1;
  }

  // 5. Inspect the results: PLT, per-object timings, transport internals.
  const workload::ScenarioResult& page = loader.result();
  std::printf("Page load time: %.3f s (%zu objects)\n",
              to_seconds(page.duration), page.detail.size());
  for (const auto& obj : page.detail) {
    std::printf("  obj%-3llu first-byte %.3fs  complete %.3fs  (%llu bytes)\n",
                static_cast<unsigned long long>(obj.object_index),
                to_seconds(obj.first_byte - page.started),
                to_seconds(obj.completed - page.started),
                static_cast<unsigned long long>(obj.download_bytes));
  }

  const quic::QuicConnection& client = session.connection();
  std::printf("\nClient connection: %llu packets sent, %llu received, "
              "handshake RTTs: %llu\n",
              static_cast<unsigned long long>(client.stats().packets_sent),
              static_cast<unsigned long long>(client.stats().packets_received),
              static_cast<unsigned long long>(
                  client.stats().handshake_round_trips));
  if (auto* sc = server.server().latest_connection()) {
    std::printf("Server: cwnd %zu bytes, srtt %.1f ms, %llu packets declared "
                "lost (%llu spurious), state %s\n",
                sc->congestion_window(), to_millis(sc->rtt().smoothed()),
                static_cast<unsigned long long>(
                    sc->stats().packets_declared_lost),
                static_cast<unsigned long long>(sc->stats().spurious_losses),
                std::string(to_string(sc->send_algorithm().tracker().state()))
                    .c_str());
  }
  return 0;
}
