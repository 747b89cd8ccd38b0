#include "harness/fairness.h"

#include <memory>

#include "harness/compare_detail.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sim/timer.h"
#include "workload/executor.h"

namespace longlook::harness {
namespace {

struct Flow {
  FlowReport report;
  std::unique_ptr<http::ClientSession> session;
  std::unique_ptr<workload::ScenarioRunner> runner;
  std::size_t sampler_index = 0;
  // Sender-side (server) connection snapshot, resolved lazily after the
  // handshake: fills cwnd/srtt/inflight from the server's view of the flow.
  std::function<void(obs::ConnSample&)> state_probe;

  // Bytes of the flow's one download received so far; 0 until the request
  // is issued (the sampler can tick before the handshake completes).
  std::uint64_t bytes_received() const {
    const auto& d = runner->result().detail;
    return d.empty() ? 0 : d[0].download_bytes;
  }
};

}  // namespace

std::vector<FlowReport> run_fairness(const Scenario& scenario,
                                     const FairnessConfig& config) {
  obs::TraceSink* sink = config.trace;
  Testbed tb(scenario);
  http::QuicObjectServer quic_server(tb.sim(), tb.server_host(), kQuicPort,
                                     config.quic);
  http::TcpObjectServer tcp_server(tb.sim(), tb.server_host(), kTcpPort,
                                   config.tcp);
  const std::shared_ptr<void> keepalive =
      config.setup ? config.setup(tb) : nullptr;

  if (sink != nullptr) {
    sink->record(
        obs::TraceEvent("run:start", tb.sim().now())
            .u("v", 3)
            .s("proto", "mixed")
            .s("scenario", scenario.name)
            .u("seed", scenario.seed)
            .u("objects", static_cast<std::uint64_t>(config.quic_flows +
                                                     config.tcp_flows))
            .u("object_bytes", config.transfer_bytes));
  }

  std::vector<std::unique_ptr<Flow>> flows;
  std::vector<std::unique_ptr<quic::TokenCache>> token_caches;

  for (int i = 0; i < config.quic_flows; ++i) {
    auto flow = std::make_unique<Flow>();
    flow->report.name = config.quic_flows > 1
                            ? "QUIC " + std::to_string(i + 1)
                            : "QUIC";
    flow->report.protocol = Protocol::kQuic;
    token_caches.push_back(std::make_unique<quic::TokenCache>());
    auto session = std::make_unique<http::QuicClientSession>(
        tb.sim(), tb.client_host(), tb.server_host().address(), kQuicPort,
        config.quic, *token_caches.back());
    http::QuicClientSession* raw = session.get();
    quic::QuicServer* qs = &quic_server.server();
    flow->state_probe = [raw, qs](obs::ConnSample& s) {
      quic::QuicConnection* server_conn =
          qs->connection(raw->connection().connection_id());
      if (server_conn != nullptr) server_conn->sample_state(s);
    };
    flow->session = std::move(session);
    flows.push_back(std::move(flow));
  }
  for (int i = 0; i < config.tcp_flows; ++i) {
    auto flow = std::make_unique<Flow>();
    flow->report.name =
        config.tcp_flows > 1 ? "TCP " + std::to_string(i + 1) : "TCP";
    flow->report.protocol = Protocol::kTcp;
    auto session = std::make_unique<http::H2ClientSession>(
        tb.sim(), tb.client_host(), tb.server_host().address(), kTcpPort,
        config.tcp);
    http::H2ClientSession* raw = session.get();
    tcp::TcpServer* ts = &tcp_server.server();
    const Address client_addr = tb.client_host().address();
    flow->state_probe = [raw, ts, client_addr](obs::ConnSample& s) {
      // Identify the server-side connection by the client's ephemeral port.
      tcp::TcpConnection* server_conn =
          ts->connection_for(client_addr, raw->local_port());
      if (server_conn != nullptr) server_conn->sample_state(s);
    };
    flow->session = std::move(session);
    flows.push_back(std::move(flow));
  }

  // Start every flow at t=0: one huge download each.
  for (auto& flow : flows) {
    flow->runner = std::make_unique<workload::ScenarioRunner>(
        tb.sim(), *flow->session,
        workload::page_scenario({1, config.transfer_bytes}));
    flow->runner->start();
  }

  // Sampler: one `ts:flow` series per flow (server cwnd/srtt joined with
  // client-delivered bytes), plus the testbed's queue/host series when a
  // sink is attached. Retained points rebuild the FlowReport timelines.
  obs::StateSampler sampler(sink);
  sampler.set_retain_flows(true);
  if (sink != nullptr) detail::register_testbed_probes(sampler, tb);
  for (auto& flow : flows) {
    Flow* raw_flow = flow.get();
    flow->sampler_index =
        sampler.add_flow(flow->report.name, [raw_flow]() {
          obs::ConnSample s;
          raw_flow->state_probe(s);
          s.delivered_bytes = raw_flow->bytes_received();
          return s;
        });
  }
  PeriodicTimer sample_timer(tb.sim(), config.sample_interval,
                             [&sampler, &tb] {
                               sampler.sample(tb.sim().now());
                             });

  tb.sim().run_until(TimePoint{} + config.duration);
  sample_timer.stop();

  const double interval_s = to_seconds(config.sample_interval);
  std::vector<FlowReport> reports;
  obs::MetricsRegistry m;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    Flow& flow = *flows[i];
    std::uint64_t last = 0;
    for (const auto& pt : sampler.flow_timeline(flow.sampler_index)) {
      FlowSample s;
      s.t_s = to_seconds(pt.at.time_since_epoch());
      s.mbps = static_cast<double>(pt.sample.delivered_bytes - last) * 8.0 /
               interval_s / 1e6;
      s.cwnd_bytes = static_cast<double>(pt.sample.cwnd_bytes);
      last = pt.sample.delivered_bytes;
      flow.report.timeline.push_back(s);
    }
    flow.report.bytes_received = flow.bytes_received();
    flow.report.avg_mbps = static_cast<double>(flow.report.bytes_received) *
                           8.0 / to_seconds(config.duration) / 1e6;
    m.incr("flow" + std::to_string(i) + ".bytes_received",
           flow.report.bytes_received);
    reports.push_back(std::move(flow.report));
  }
  if (sink != nullptr) {
    detail::emit_run_summary(sink, true, config.duration, tb.sim().now());
    // run:metrics stays the artifact's last line (tracectl validate).
    m.record_to(*sink, tb.sim().now());
  }
  return reports;
}

}  // namespace longlook::harness
