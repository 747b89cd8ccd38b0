// The experiment testbed (Fig. 1 / Fig. 16 topology):
//
//   client <—> router <—> mid <—> server
//
// The client–router link is the emulation point (tc TBF + netem on the
// paper's OpenWRT router): rate cap, router buffer, extra delay, jitter,
// loss, reordering. The mid node is a plain forwarder by default; proxy
// experiments place a TcpProxy/QuicProxy on it (equidistant from client and
// server, as in Fig. 16). Base path RTT is 36 ms, matching the paper's
// desktop experiments (12 ms empirical EC2 RTT plus access latency).
#pragma once

#include <memory>
#include <optional>

#include "http/object_service.h"
#include "net/host.h"
#include "net/profiles.h"
#include "net/varbw.h"
#include "sim/simulator.h"

namespace longlook::harness {

struct Scenario {
  std::string name = "default";
  // Bottleneck cap on the client–router link (both directions); 0 = none.
  std::int64_t rate_bps = 0;
  // Extra round-trip delay added to the path (paper: 0/50/100 ms).
  Duration extra_rtt = kNoDuration;
  // Per-direction delay jitter stddev on the access link (causes
  // reordering, netem-style).
  Duration jitter = kNoDuration;
  double loss_rate = 0.0;     // per direction on the access link
  double reorder_prob = 0.0;  // netem reorder p% (skip-the-queue)
  std::int64_t buffer_bytes = 768 * 1024;  // router drop-tail queue (calibrated per Sec. 3.2)
  std::int64_t bucket_bytes = 32 * 1024;   // TBF burst
  DeviceProfile device = desktop_profile();
  // When set, the access link is built from the cellular profile instead of
  // the wired parameters above (Fig. 14 / Table 5).
  std::optional<CellularProfile> cellular;
  std::uint64_t seed = 1;
};

constexpr Port kQuicPort = 443;
constexpr Port kTcpPort = 443;
constexpr Port kProxyPort = 3128;

class Testbed {
 public:
  explicit Testbed(const Scenario& scenario);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  Simulator& sim() { return sim_; }
  Host& client_host() { return *client_; }
  Host& router_host() { return *router_; }
  Host& mid_host() { return *mid_; }  // proxy placement point
  Host& server_host() { return *server_; }

  // Bottleneck directions for live adjustment (variable bandwidth, Fig. 11).
  DirectionalLink& uplink() { return access_->a_to_b(); }
  DirectionalLink& downlink() { return access_->b_to_a(); }

  const Scenario& scenario() const { return scenario_; }

  // Runs the simulation until `done` returns true or sim-time timeout.
  // Returns done(). Templated on the predicate: it runs once per dispatched
  // event (~1M times per page-load sweep), so the call must inline rather
  // than bounce through a std::function.
  template <typename Pred>
  bool run_until(const Pred& done, Duration timeout) {
    const TimePoint deadline = sim_.now() + timeout;
    while (!done() && sim_.now() < deadline) {
      if (!sim_.step()) break;
    }
    return done();
  }

 private:
  Scenario scenario_;
  Simulator sim_;
  Network net_;
  Host* client_ = nullptr;
  Host* router_ = nullptr;
  Host* mid_ = nullptr;
  Host* server_ = nullptr;
  DuplexLink* access_ = nullptr;  // client <-> router
};

}  // namespace longlook::harness
