// The traced run: one paired round of every cell of a workload, composed
// from the layers' public types (Network/Host/DuplexLink, the object
// servers, the transport endpoints, PageLoader/ScenarioRunner) so that the
// benchmark can record a span around each call into a layer. It must
// reproduce the harness run exactly: its Outcome (and so its digest) is
// compared with the untraced run's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "util/bytes.h"
#include "workloads.h"

namespace perfbench {

struct TracedIteration {
  Outcome outcome;
  SpanTotals totals;
  // Host time of every run from its setup span's start to its teardown
  // span's end; what the span self times and the unattributed part share.
  std::int64_t wall_ns = 0;
  // One JSON line per run: {"run":N,"spans":{"<name>":[count,total_ns,
  // self_ns],...}}, appended as each run ends.
  std::string span_summary;
  // QUIC receive self time in the first and the last tenth of each run's
  // QUIC receive spans (by packet order), summed over runs. Both tenths
  // hold the same number of packets.
  std::int64_t rx_first_ns = 0;
  std::int64_t rx_last_ns = 0;
  // A sample of the datagrams/segments seen at the wrapped sockets.
  std::vector<longlook::Bytes> quic_wire;
  std::vector<longlook::Bytes> tcp_wire;
};

// Runs the traced iteration. `timeout` bounds each run in virtual time, as
// CompareOptions::timeout does for the harness. `capture_wire` fills the
// codec sample.
TracedIteration run_traced(const Workload& w, longlook::Duration timeout,
                           bool capture_wire);

}  // namespace perfbench
