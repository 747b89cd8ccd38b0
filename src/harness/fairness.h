// Flow-level fairness experiments (Sec. 5.1, Figs. 4/5, Table 4) and bulk
// throughput timelines (Figs. 9/11).
//
// Runs N QUIC and M TCP bulk downloads simultaneously over one bottleneck,
// sampling each flow's goodput and its server-side congestion window.
#pragma once

#include <string>
#include <vector>

#include "harness/testbed.h"
#include "http/h2_session.h"
#include "http/quic_session.h"

namespace longlook::harness {

struct FlowSample {
  double t_s = 0;
  double mbps = 0;          // goodput over the last sample interval
  double cwnd_bytes = 0;    // sender (server) congestion window
};

struct FlowReport {
  std::string name;
  Protocol protocol = Protocol::kQuic;
  double avg_mbps = 0;      // delivered bytes * 8 / duration
  std::uint64_t bytes_received = 0;
  std::vector<FlowSample> timeline;
};

struct FairnessConfig {
  int quic_flows = 1;
  int tcp_flows = 1;
  Duration duration = seconds(30);
  Duration sample_interval = milliseconds(500);
  // Per-flow download size; sized so no flow finishes within `duration`.
  std::size_t transfer_bytes = 512 * 1024 * 1024;
  quic::QuicConfig quic{};
  tcp::TcpConfig tcp{};
  // Optional testbed hook before flows start (e.g. variable bandwidth).
  // The returned keep-alive is destroyed before the testbed.
  std::function<std::shared_ptr<void>(Testbed&)> setup;
  // Structured-trace sink (schema v3): when non-null, the run emits a
  // run:start header, one `ts:flow` record per flow per sample tick plus
  // the testbed's `ts:queue`/`ts:host` series, and a run:metrics footer —
  // an artifact `tracectl timeline` can plot directly. Null disables (the
  // in-memory FlowReport timelines are built either way). Not owned.
  obs::TraceSink* trace = nullptr;
};

// Runs the experiment on a fresh testbed built from `scenario`.
std::vector<FlowReport> run_fairness(const Scenario& scenario,
                                     const FairnessConfig& config);

}  // namespace longlook::harness
