// Same-seed replay determinism — the property the paper's state-machine
// inference (Sec. 5) silently assumes: two runs of the same scenario with
// the same seed must produce byte-identical packet-event traces. Also the
// home of the injected-violation death tests proving the LL_INVARIANT
// layer actually catches protocol-state corruption at runtime.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cc/prr.h"
#include "harness/compare.h"
#include "harness/testbed.h"
#include "net/trace.h"
#include "quic/sent_packet_manager.h"
#include "util/check.h"

namespace longlook {
namespace {

// An impaired scenario that exercises every randomized path: token-bucket
// serialisation, netem jitter, random loss, and skip-the-queue reordering.
harness::Scenario impaired_scenario(std::uint64_t seed) {
  harness::Scenario sc;
  sc.name = "determinism";
  sc.rate_bps = 5'000'000;
  sc.extra_rtt = milliseconds(50);
  sc.jitter = milliseconds(3);
  sc.loss_rate = 0.01;
  sc.reorder_prob = 0.01;
  sc.seed = seed;
  return sc;
}

harness::Workload small_page() {
  harness::Workload wl;
  wl.object_count = 4;
  wl.object_bytes = 30 * 1024;
  return wl;
}

struct RunResult {
  std::string trace;  // full rendered event trace, both directions
  double plt_s = -1;
};

// Runs one QUIC page load with packet traces tapped onto both bottleneck
// directions and renders every record (timestamps included) to text.
RunResult run_quic(std::uint64_t seed) {
  harness::CompareOptions opts;
  opts.warm_zero_rtt = false;
  std::shared_ptr<PacketTrace> down, up;
  opts.setup = [&](harness::Testbed& tb) {
    down = std::make_shared<PacketTrace>(tb.downlink());
    up = std::make_shared<PacketTrace>(tb.uplink());
    return std::shared_ptr<void>();
  };
  quic::TokenCache tokens;
  const auto plt =
      harness::run_quic_page_load(impaired_scenario(seed), small_page(), opts,
                                  tokens);
  RunResult r;
  if (plt) r.plt_s = *plt;
  r.trace = "== down ==\n" + down->to_text(down->records().size()) +
            "== up ==\n" + up->to_text(up->records().size());
  return r;
}

RunResult run_tcp(std::uint64_t seed) {
  harness::CompareOptions opts;
  std::shared_ptr<PacketTrace> down, up;
  opts.setup = [&](harness::Testbed& tb) {
    down = std::make_shared<PacketTrace>(tb.downlink());
    up = std::make_shared<PacketTrace>(tb.uplink());
    return std::shared_ptr<void>();
  };
  const auto plt =
      harness::run_tcp_page_load(impaired_scenario(seed), small_page(), opts);
  RunResult r;
  if (plt) r.plt_s = *plt;
  r.trace = "== down ==\n" + down->to_text(down->records().size()) +
            "== up ==\n" + up->to_text(up->records().size());
  return r;
}

TEST(Determinism, QuicSameSeedProducesByteIdenticalTraces) {
  const RunResult a = run_quic(7);
  const RunResult b = run_quic(7);
  ASSERT_GT(a.plt_s, 0) << "page load did not complete";
  EXPECT_EQ(a.plt_s, b.plt_s);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

TEST(Determinism, TcpSameSeedProducesByteIdenticalTraces) {
  const RunResult a = run_tcp(7);
  const RunResult b = run_tcp(7);
  ASSERT_GT(a.plt_s, 0) << "page load did not complete";
  EXPECT_EQ(a.plt_s, b.plt_s);
  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces) {
  // Sanity check that the byte-identical assertion above has power: the
  // seed genuinely feeds the randomized impairments.
  EXPECT_NE(run_quic(1).trace, run_quic(2).trace);
}

TEST(Determinism, PairedSeedsGiveSameNetworkToBothProtocols) {
  // The paper's pairing methodology: QUIC and TCP rounds share a seed, so
  // re-running either protocol in the same round re-sees the same network.
  const RunResult q1 = run_quic(11);
  const RunResult q2 = run_quic(11);
  EXPECT_EQ(q1.trace, q2.trace);
  const RunResult t1 = run_tcp(11);
  const RunResult t2 = run_tcp(11);
  EXPECT_EQ(t1.trace, t2.trace);
}

// --- Injected invariant violations must be caught (death tests) ---

using InvariantDeathTest = ::testing::Test;

TEST(InvariantDeathTest, ReusedPacketNumberIsCaught) {
  quic::SentPacketManager spm{quic::LossDetectionConfig{}};
  spm.on_packet_sent(1, 1200, TimePoint{}, true, {});
  EXPECT_DEATH(spm.on_packet_sent(1, 1200, TimePoint{}, true, {}),
               "INVARIANT failed.*packet number 1 reused");
}

TEST(InvariantDeathTest, OutOfOrderRetransmittablePacketIsCaught) {
  quic::SentPacketManager spm{quic::LossDetectionConfig{}};
  const TimePoint t0 = TimePoint{} + milliseconds(10);
  spm.on_packet_sent(5, 1200, t0, true, {});
  // A deferred ack-only packet may land below earlier pns...
  spm.on_packet_sent(3, 0, t0, false, {});
  // ...but a retransmittable one must rise in both pn and sent time.
  EXPECT_DEATH(spm.on_packet_sent(4, 1200, t0, true, {}),
               "INVARIANT failed.*retransmittable pn 4 registered after pn 5");
  EXPECT_DEATH(spm.on_packet_sent(6, 1200, TimePoint{}, true, {}),
               "INVARIANT failed.*retransmittable pn 6 sent before");
}

TEST(InvariantDeathTest, AckOfUnsentPacketIsCaught) {
  quic::SentPacketManager spm{quic::LossDetectionConfig{}};
  spm.on_packet_sent(1, 1200, TimePoint{}, true, {});
  quic::AckFrame ack;
  ack.largest_acked = 99;  // never sent
  ack.ranges.push_back({99, 99});
  RttEstimator rtt;
  EXPECT_DEATH(spm.on_ack(ack, TimePoint{}, rtt),
               "INVARIANT failed.*acked unsent pn 99");
}

TEST(InvariantDeathTest, ZeroMssRecoveryIsCaught) {
  ProportionalRateReduction prr;
  EXPECT_DEATH(prr.enter_recovery(10000, 5000, 0),
               "CHECK failed.*mss=0");
}

}  // namespace
}  // namespace longlook
