// Unit tests: QUIC internals — AckManager (range tracking, decimation,
// immediate-ack-on-reorder), SentPacketManager (the three loss-detection
// modes, spurious-loss bookkeeping, RTO/TLP data) and QuicStream (chunking,
// retransmission queue, flow control, reassembly, FIN handling).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "quic/ack_manager.h"
#include "quic/sent_packet_manager.h"
#include "quic/stream.h"

namespace longlook::quic {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + milliseconds(ms); }

// --- AckManager ----------------------------------------------------------

TEST(AckManager, TracksContiguousRange) {
  AckManager am;
  for (PacketNumber pn = 1; pn <= 5; ++pn) {
    EXPECT_FALSE(am.on_packet_received(at_ms(pn), pn, true));
  }
  ASSERT_EQ(am.ranges().size(), 1u);
  EXPECT_EQ(am.ranges()[0].lo, 1u);
  EXPECT_EQ(am.ranges()[0].hi, 5u);
  EXPECT_EQ(am.largest_received(), 5u);
}

TEST(AckManager, DetectsDuplicates) {
  AckManager am;
  EXPECT_FALSE(am.on_packet_received(at_ms(1), 7, true));
  EXPECT_TRUE(am.on_packet_received(at_ms(2), 7, true));
}

TEST(AckManager, MergesRangesWhenHoleFills) {
  AckManager am;
  am.on_packet_received(at_ms(1), 1, true);
  am.on_packet_received(at_ms(2), 3, true);
  EXPECT_EQ(am.ranges().size(), 2u);
  am.on_packet_received(at_ms(3), 2, true);
  ASSERT_EQ(am.ranges().size(), 1u);
  EXPECT_EQ(am.ranges()[0].hi, 3u);
}

TEST(AckManager, AckDecimationEveryN) {
  AckManagerConfig cfg;
  cfg.ack_every_n = 2;
  AckManager am(cfg);
  am.on_packet_received(at_ms(1), 1, true);
  EXPECT_FALSE(am.ack_required_now());
  EXPECT_TRUE(am.ack_deadline().has_value());  // delayed-ack alarm pending
  am.on_packet_received(at_ms(2), 2, true);
  EXPECT_TRUE(am.ack_required_now());
}

TEST(AckManager, ImmediateAckOnReordering) {
  AckManager am;
  am.on_packet_received(at_ms(1), 5, true);
  am.build_ack(at_ms(1));
  // A gap appears: ack immediately so the sender learns fast.
  am.on_packet_received(at_ms(2), 7, true);
  EXPECT_TRUE(am.ack_required_now());
}

TEST(AckManager, NonRetransmittablePacketsDontForceAcks) {
  AckManager am;
  am.on_packet_received(at_ms(1), 1, false);
  am.on_packet_received(at_ms(2), 2, false);
  EXPECT_FALSE(am.ack_required_now());
  EXPECT_FALSE(am.ack_deadline().has_value());
}

TEST(AckManager, BuildAckCarriesDelayAndDescendingRanges) {
  AckManager am;
  am.on_packet_received(at_ms(10), 1, true);
  am.on_packet_received(at_ms(11), 2, true);
  am.on_packet_received(at_ms(12), 9, true);
  const AckFrame ack = am.build_ack(at_ms(20));
  EXPECT_EQ(ack.largest_acked, 9u);
  EXPECT_EQ(ack.ack_delay, milliseconds(8));  // 20 - 12
  ASSERT_EQ(ack.ranges.size(), 2u);
  EXPECT_EQ(ack.ranges[0].hi, 9u);  // largest range first on the wire
  EXPECT_FALSE(am.ack_pending());   // building resets the pending state
}

TEST(AckManager, StopWaitingDropsOldRanges) {
  AckManager am;
  for (PacketNumber pn : {1, 2, 3, 7, 8, 20}) {
    am.on_packet_received(at_ms(pn), pn, true);
  }
  am.on_stop_waiting(8);
  ASSERT_GE(am.ranges().size(), 1u);
  EXPECT_GE(am.ranges().front().lo, 8u);
}

TEST(AckManager, RangeCountIsBoundedUnderPathologicalGaps) {
  // Memory bound: with a hole before every packet, the oldest ranges are
  // evicted once the configured cap is hit (losing only stale ack info).
  AckManagerConfig cfg;
  cfg.max_ranges = 16;
  AckManager am(cfg);
  for (PacketNumber pn = 2; pn < 400; pn += 2) {  // all odd pns missing
    am.on_packet_received(at_ms(pn), pn, true);
    EXPECT_LE(am.ranges().size(), 16u);
  }
  // The newest information is retained.
  EXPECT_EQ(am.ranges().back().hi, 398u);
}

// --- SentPacketManager -----------------------------------------------------

AckFrame simple_ack(PacketNumber largest, std::vector<AckRange> ranges) {
  AckFrame ack;
  ack.largest_acked = largest;
  ack.ranges = std::move(ranges);
  return ack;
}

StreamDataRef data_ref(StreamId id, std::uint64_t off, std::size_t len) {
  StreamDataRef ref;
  ref.stream_id = id;
  ref.offset = off;
  ref.len = len;
  return ref;
}

TEST(SentPacketManager, AcksRemovePacketsAndUpdateRtt) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  spm.on_packet_sent(1, 1000, at_ms(0), true, {data_ref(3, 0, 1000)});
  spm.on_packet_sent(2, 1000, at_ms(1), true, {data_ref(3, 1000, 1000)});
  EXPECT_EQ(spm.bytes_in_flight(), 2000u);
  const auto result = spm.on_ack(simple_ack(2, {{1, 2}}), at_ms(40), rtt);
  EXPECT_EQ(result.acked.size(), 2u);
  EXPECT_TRUE(result.rtt_updated);
  EXPECT_EQ(rtt.latest(), milliseconds(39));  // 40 - 1 for the largest
  EXPECT_EQ(spm.bytes_in_flight(), 0u);
  EXPECT_TRUE(result.lost.empty());
}

TEST(SentPacketManager, FixedNackThresholdDeclaresLoss) {
  LossDetectionConfig cfg;  // threshold 3
  SentPacketManager spm(cfg);
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 5; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true,
                       {data_ref(3, (pn - 1) * 1000, 1000)});
  }
  // Ack 2..4: packet 1 is 3 below largest => exactly at threshold => lost.
  const auto result = spm.on_ack(simple_ack(4, {{2, 4}}), at_ms(50), rtt);
  ASSERT_EQ(result.lost.size(), 1u);
  EXPECT_EQ(result.lost[0].packet_number, 1u);
  ASSERT_EQ(result.lost_data.size(), 1u);
  EXPECT_EQ(result.lost_data[0].offset, 0u);
  EXPECT_EQ(spm.total_packets_declared_lost(), 1u);
}

TEST(SentPacketManager, BelowThresholdNotLost) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 3; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  // Largest acked 3, hole at 1: gap of 2 < threshold 3.
  const auto result = spm.on_ack(simple_ack(3, {{2, 3}}), at_ms(50), rtt);
  EXPECT_TRUE(result.lost.empty());
}

TEST(SentPacketManager, LateAckRevealsSpuriousLoss) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 6; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  auto first = spm.on_ack(simple_ack(6, {{2, 6}}), at_ms(50), rtt);
  ASSERT_EQ(first.lost.size(), 1u);  // packet 1 declared lost
  // Packet 1 arrives after all (reordered, not lost).
  auto second = spm.on_ack(simple_ack(6, {{1, 6}}), at_ms(60), rtt);
  EXPECT_TRUE(second.spurious_loss_detected);
  EXPECT_EQ(spm.total_spurious_losses(), 1u);
}

// Regression: a late ACK of a declared-lost packet used to erase the entry
// without crediting the CC or returning the stream refs, so the connection
// both under-counted delivered bytes and double-sent the queued
// retransmission. The spuriously-acked packet must appear in `acked` (CC
// credit) and its data in `spurious_data` (cancel the queued resend).
TEST(SentPacketManager, SpuriousAckCreditsCcAndReturnsDataForCancel) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 5; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true,
                       {data_ref(3, (pn - 1) * 1000, 1000)});
  }
  const auto first = spm.on_ack(simple_ack(4, {{2, 4}}), at_ms(50), rtt);
  ASSERT_EQ(first.lost.size(), 1u);  // packet 1 declared lost
  // Packet 1's data arrives after all.
  const auto second = spm.on_ack(simple_ack(4, {{1, 4}}), at_ms(60), rtt);
  EXPECT_TRUE(second.spurious_loss_detected);
  ASSERT_EQ(second.acked.size(), 1u);
  EXPECT_EQ(second.acked[0].packet_number, 1u);
  EXPECT_EQ(second.acked[0].bytes, 1000u);  // CC gets the delivered bytes
  ASSERT_EQ(second.spurious_acked.size(), 1u);
  EXPECT_EQ(second.spurious_acked[0].packet_number, 1u);
  ASSERT_EQ(second.spurious_data.size(), 1u);
  EXPECT_EQ(second.spurious_data[0].stream_id, 3u);
  EXPECT_EQ(second.spurious_data[0].offset, 0u);
  EXPECT_EQ(second.spurious_data[0].len, 1000u);
  EXPECT_EQ(second.largest_newly_acked, 1u);
}

// Regression: least_unacked() used to skip declared-lost entries, so the
// STOP_WAITING floor advanced past them and the peer purged exactly the ack
// ranges that would have revealed the loss as spurious.
TEST(SentPacketManager, LeastUnackedIncludesDeclaredLost) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 5; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  const auto result = spm.on_ack(simple_ack(4, {{2, 4}}), at_ms(50), rtt);
  ASSERT_EQ(result.lost.size(), 1u);  // packet 1 declared lost, entry kept
  // Packet 1 is still awaited (its late ack reveals the spurious loss), so
  // it must anchor the STOP_WAITING floor. The pre-fix code skipped it and
  // returned 5.
  EXPECT_EQ(spm.least_unacked(), 1u);
  // Once the late ack lands, the floor advances normally.
  (void)spm.on_ack(simple_ack(4, {{1, 4}}), at_ms(60), rtt);
  EXPECT_EQ(spm.least_unacked(), 5u);
}

// Regression: the adaptive-NACK deepening used the pre-ack largest_acked_,
// understating the observed reordering depth when the revealing ACK itself
// carries a new maximum.
TEST(SentPacketManager, AdaptiveThresholdSeesRevealingAcksOwnLargest) {
  LossDetectionConfig cfg;
  cfg.mode = LossDetectionMode::kAdaptiveNack;
  SentPacketManager spm(cfg);
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 10; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  (void)spm.on_ack(simple_ack(8, {{2, 8}}), at_ms(50), rtt);  // pn 1 lost
  // The late ack of pn 1 arrives in the same frame that first acks 9..10:
  // observed depth is 10 - 1 = 9 against the frame's own largest, not
  // 8 - 1 = 7 against the stale member.
  (void)spm.on_ack(simple_ack(10, {{9, 10}, {1, 1}}), at_ms(60), rtt);
  EXPECT_GT(spm.current_nack_threshold(), 9u);
}

TEST(SentPacketManager, AdaptiveModeRaisesThresholdAfterSpurious) {
  LossDetectionConfig cfg;
  cfg.mode = LossDetectionMode::kAdaptiveNack;
  SentPacketManager spm(cfg);
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 10; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  EXPECT_EQ(spm.current_nack_threshold(), 3u);
  (void)spm.on_ack(simple_ack(8, {{2, 8}}), at_ms(50), rtt);
  (void)spm.on_ack(simple_ack(8, {{1, 8}}), at_ms(60), rtt);  // late arrival
  // Observed reorder depth was 7: the threshold deepens past it (RR-TCP).
  EXPECT_GT(spm.current_nack_threshold(), 7u);
  // Same reordering depth again: no longer declared lost.
  spm.on_packet_sent(11, 1000, at_ms(70), true, {});
  for (PacketNumber pn = 12; pn <= 16; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn + 60), true, {});
  }
  const auto result = spm.on_ack(simple_ack(16, {{12, 16}}), at_ms(90), rtt);
  EXPECT_TRUE(result.lost.empty());
}

TEST(SentPacketManager, TimeThresholdModeUsesElapsedTime) {
  LossDetectionConfig cfg;
  cfg.mode = LossDetectionMode::kTimeThreshold;
  SentPacketManager spm(cfg);
  RttEstimator rtt;
  rtt.update(milliseconds(40));
  spm.on_packet_sent(1, 1000, at_ms(0), true, {});
  for (PacketNumber pn = 2; pn <= 9; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(10), true, {});
  }
  // Deep reordering gap but little elapsed time: not lost.
  auto early = spm.on_ack(simple_ack(9, {{2, 9}}), at_ms(12), rtt);
  EXPECT_TRUE(early.lost.empty());
  EXPECT_TRUE(spm.earliest_loss_time(rtt).has_value());
  // Within the variance-guarded threshold (srtt + 4*rttvar + 25ms =
  // 40 + 80 + 25 = 145ms here): still not lost.
  auto guarded = spm.detect_time_losses(at_ms(120), rtt);
  EXPECT_TRUE(guarded.lost.empty());
  // Once the time threshold truly elapses, the alarm path declares it.
  auto late = spm.detect_time_losses(at_ms(250), rtt);
  ASSERT_EQ(late.lost.size(), 1u);
  EXPECT_EQ(late.lost[0].packet_number, 1u);
}

TEST(SentPacketManager, RtoReturnsAllInFlightData) {
  SentPacketManager spm(LossDetectionConfig{});
  spm.on_packet_sent(1, 1000, at_ms(0), true, {data_ref(3, 0, 500)});
  spm.on_packet_sent(2, 900, at_ms(1), true, {data_ref(3, 500, 400)});
  spm.on_packet_sent(3, 100, at_ms(2), false, {});  // ack-only: excluded
  const auto refs = spm.on_retransmission_timeout();
  EXPECT_EQ(refs.size(), 2u);
  EXPECT_EQ(spm.bytes_in_flight(), 0u);
}

TEST(SentPacketManager, TlpReturnsNewestUnackedData) {
  SentPacketManager spm(LossDetectionConfig{});
  spm.on_packet_sent(1, 1000, at_ms(0), true, {data_ref(3, 0, 500)});
  spm.on_packet_sent(2, 1000, at_ms(1), true, {data_ref(3, 500, 400)});
  const auto refs = spm.tail_loss_probe_data();
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].offset, 500u);
}

TEST(SentPacketManager, LeastUnackedSkipsAcked) {
  SentPacketManager spm(LossDetectionConfig{});
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 3; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  (void)spm.on_ack(simple_ack(1, {{1, 1}}), at_ms(40), rtt);
  EXPECT_EQ(spm.least_unacked(), 2u);
}

// Regression (sender + receiver together): with the old least_unacked()
// skipping declared-lost packets, the STOP_WAITING floor jumped past the
// hole, the receiver purged the revealing ranges, and a reordered packet
// could never be recognised as a spurious loss.
TEST(SentPacketManager, ReorderedPacketPastStopWaitingStillRevealsSpurious) {
  SentPacketManager spm(LossDetectionConfig{});
  AckManager am;
  RttEstimator rtt;
  for (PacketNumber pn = 1; pn <= 5; ++pn) {
    spm.on_packet_sent(pn, 1000, at_ms(pn), true, {});
  }
  // Packet 1 is reordered in the network; 2..5 arrive first.
  for (PacketNumber pn = 2; pn <= 5; ++pn) {
    am.on_packet_received(at_ms(pn + 10), pn, true);
  }
  const auto first = spm.on_ack(am.build_ack(at_ms(20)), at_ms(20), rtt);
  ASSERT_EQ(first.lost.size(), 1u);  // packet 1 declared lost
  // Sender emits STOP_WAITING with its current floor. Because packet 1 is
  // declared-lost-but-awaited, the floor must still be 1 — the pre-fix
  // floor of 6 made the receiver forget the 2..5 ranges, so the late
  // packet 1 produced an ack that never revealed the spurious loss.
  am.on_stop_waiting(spm.least_unacked());
  // The wandering packet finally lands.
  am.on_packet_received(at_ms(40), 1, true);
  const auto second = spm.on_ack(am.build_ack(at_ms(41)), at_ms(41), rtt);
  EXPECT_TRUE(second.spurious_loss_detected);
  EXPECT_EQ(spm.total_spurious_losses(), 1u);
}

// --- QuicStream ---------------------------------------------------------------

Bytes make_bytes(std::size_t n, std::uint8_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(seed + i);
  return b;
}

TEST(QuicStream, ChunksRespectMaxLen) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(3000), true);
  auto c1 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(c1);
  EXPECT_EQ(c1->offset, 0u);
  EXPECT_EQ(c1->data.size(), 1350u);
  EXPECT_FALSE(c1->fin);
  auto c2 = s.take_chunk(1350, 1 << 20);
  auto c3 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(c3);
  EXPECT_EQ(c3->data.size(), 300u);
  EXPECT_TRUE(c3->fin);
  EXPECT_FALSE(s.take_chunk(1350, 1 << 20).has_value());
}

TEST(QuicStream, PureFinChunk) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(100), false);
  (void)s.take_chunk(1350, 1 << 20);
  s.write({}, true);  // fin after the data was already taken
  auto fin_chunk = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(fin_chunk);
  EXPECT_TRUE(fin_chunk->fin);
  EXPECT_TRUE(fin_chunk->data.empty());
}

TEST(QuicStream, StreamFlowControlBlocksFreshData) {
  QuicStream s(3, /*send_window=*/2000, 1 << 20);
  s.write(make_bytes(5000), false);
  auto c1 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(c1);
  auto c2 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(c2);
  EXPECT_EQ(c2->data.size(), 650u);  // window edge at 2000
  EXPECT_FALSE(s.take_chunk(1350, 1 << 20).has_value());
  EXPECT_TRUE(s.blocked_by_stream_fc());
  s.on_window_update(4000);
  EXPECT_FALSE(s.blocked_by_stream_fc());
  EXPECT_TRUE(s.take_chunk(1350, 1 << 20).has_value());
}

TEST(QuicStream, ConnectionAllowanceLimitsFreshData) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(3000), false);
  auto c = s.take_chunk(1350, /*conn_allowance=*/500);
  ASSERT_TRUE(c);
  EXPECT_EQ(c->data.size(), 500u);
  EXPECT_FALSE(s.take_chunk(1350, 0).has_value());
}

TEST(QuicStream, RetransmissionsBypassFlowControlAndComeFirst) {
  QuicStream s(3, 2000, 1 << 20);
  s.write(make_bytes(2000), false);
  (void)s.take_chunk(1350, 1 << 20);
  (void)s.take_chunk(1350, 1 << 20);
  s.requeue(0, 700, false);
  EXPECT_TRUE(s.has_pending_data());
  EXPECT_FALSE(s.blocked_by_stream_fc());  // retx not window-limited
  auto retx = s.take_chunk(1350, 0);       // even with zero conn allowance
  ASSERT_TRUE(retx);
  EXPECT_TRUE(retx->is_retransmission);
  EXPECT_EQ(retx->offset, 0u);
  EXPECT_EQ(retx->data.size(), 700u);
}

TEST(QuicStream, RetransmissionSplitsAcrossChunks) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(4000), false);
  (void)s.take_chunk(4000, 1 << 20);
  s.requeue(0, 3000, false);
  auto r1 = s.take_chunk(1350, 1 << 20);
  auto r2 = s.take_chunk(1350, 1 << 20);
  auto r3 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(r1 && r2 && r3);
  EXPECT_EQ(r1->offset, 0u);
  EXPECT_EQ(r2->offset, 1350u);
  EXPECT_EQ(r3->offset, 2700u);
  EXPECT_EQ(r3->data.size(), 300u);
}

// Each 4-byte word of the stream holds its own index (little-endian), so
// the bytes at any two offsets a block apart differ.
Bytes counter_bytes(std::uint64_t offset, std::size_t len) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::uint64_t at = offset + i;
    b[i] = static_cast<std::uint8_t>((at / 4) >> (8 * (at % 4)));
  }
  return b;
}

TEST(QuicStream, RetransmissionReadsBytesAcrossBufferBlocks) {
  constexpr std::size_t kTotal = 200 * 1024;
  QuicStream s(3, 1 << 20, 1 << 20);
  // Uneven writes, so write boundaries fall inside send-buffer blocks.
  for (std::size_t at = 0; at < kTotal;) {
    const std::size_t n = std::min<std::size_t>(7777, kTotal - at);
    s.write(counter_bytes(at, n), at + n == kTotal);
    at += n;
  }
  std::uint64_t taken = 0;
  while (auto c = s.take_chunk(1350, 1 << 20)) {
    ASSERT_EQ(c->offset, taken);
    ASSERT_EQ(c->data, counter_bytes(c->offset, c->data.size()));
    taken += c->data.size();
  }
  ASSERT_EQ(taken, kTotal);
  // Lost ranges that cross the 32 KiB and 64 KiB block boundaries.
  s.requeue(64 * 1024 - 700, 1400, false);
  s.requeue(32 * 1024 - 1, 3, false);
  std::vector<std::pair<std::uint64_t, Bytes>> resent;
  while (auto c = s.take_chunk(1000, 0)) {
    ASSERT_TRUE(c->is_retransmission);
    resent.emplace_back(c->offset, c->data);
  }
  ASSERT_EQ(resent.size(), 3u);
  EXPECT_EQ(resent[0].first, 64u * 1024 - 700);
  EXPECT_EQ(resent[0].second, counter_bytes(64 * 1024 - 700, 1000));
  EXPECT_EQ(resent[1].first, 64u * 1024 + 300);
  EXPECT_EQ(resent[1].second, counter_bytes(64 * 1024 + 300, 400));
  EXPECT_EQ(resent[2].first, 32u * 1024 - 1);
  EXPECT_EQ(resent[2].second, counter_bytes(32 * 1024 - 1, 3));
}

TEST(QuicStream, CancelRetransmissionDropsQueuedRange) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(2000), false);
  (void)s.take_chunk(2000, 1 << 20);
  s.requeue(0, 1000, false);
  ASSERT_TRUE(s.has_retransmission_data());
  s.cancel_retransmission(0, 1000, false);  // the "lost" packet arrived late
  EXPECT_FALSE(s.has_retransmission_data());
  EXPECT_FALSE(s.has_pending_data());
}

TEST(QuicStream, CancelRetransmissionSplitsPartialOverlap) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(3000), false);
  (void)s.take_chunk(3000, 1 << 20);
  s.requeue(0, 3000, false);
  // Only the middle third arrived late: the flanks must stay queued.
  s.cancel_retransmission(1000, 1000, false);
  auto r1 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(r1);
  EXPECT_EQ(r1->offset, 0u);
  EXPECT_EQ(r1->data.size(), 1000u);
  auto r2 = s.take_chunk(1350, 1 << 20);
  ASSERT_TRUE(r2);
  EXPECT_EQ(r2->offset, 2000u);
  EXPECT_EQ(r2->data.size(), 1000u);
  EXPECT_FALSE(s.has_retransmission_data());
}

TEST(QuicStream, CancelRetransmissionClearsQueuedFin) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(500), true);
  (void)s.take_chunk(1350, 1 << 20);
  s.requeue(0, 500, true);
  s.cancel_retransmission(0, 500, true);  // late packet delivered the FIN too
  EXPECT_FALSE(s.has_pending_data());
}

TEST(QuicStream, InOrderDeliveryAndFin) {
  QuicStream s(3, 1 << 20, 1 << 20);
  Bytes received;
  bool fin = false;
  s.set_on_data([&](BytesView data, bool f) {
    received.insert(received.end(), data.begin(), data.end());
    fin |= f;
  });
  const Bytes payload = make_bytes(2500);
  auto r1 = s.on_stream_frame(0, BytesView(payload).first(1000), false);
  EXPECT_EQ(r1.newly_delivered, 1000u);
  auto r2 = s.on_stream_frame(1000, BytesView(payload).subspan(1000), true);
  EXPECT_EQ(r2.newly_delivered, 1500u);
  EXPECT_TRUE(r2.fin_delivered);
  EXPECT_TRUE(fin);
  EXPECT_EQ(received, payload);
  EXPECT_TRUE(s.receive_finished());
}

TEST(QuicStream, OutOfOrderReassembly) {
  QuicStream s(3, 1 << 20, 1 << 20);
  Bytes received;
  s.set_on_data([&](BytesView data, bool) {
    received.insert(received.end(), data.begin(), data.end());
  });
  const Bytes payload = make_bytes(3000);
  (void)s.on_stream_frame(2000, BytesView(payload).subspan(2000), true);
  (void)s.on_stream_frame(1000, BytesView(payload).subspan(1000, 1000), false);
  EXPECT_TRUE(received.empty());  // hole at 0
  (void)s.on_stream_frame(0, BytesView(payload).first(1000), false);
  EXPECT_EQ(received, payload);
}

TEST(QuicStream, DuplicateAndOverlappingFramesDeliverOnce) {
  QuicStream s(3, 1 << 20, 1 << 20);
  std::size_t delivered = 0;
  s.set_on_data([&](BytesView data, bool) { delivered += data.size(); });
  const Bytes payload = make_bytes(2000);
  (void)s.on_stream_frame(0, BytesView(payload).first(1500), false);
  (void)s.on_stream_frame(1000, BytesView(payload).subspan(1000), true);
  (void)s.on_stream_frame(0, BytesView(payload).first(1500), false);  // dup
  EXPECT_EQ(delivered, 2000u);
  EXPECT_EQ(s.delivered_bytes(), 2000u);
}

TEST(QuicStream, EmptyFinDelivered) {
  QuicStream s(3, 1 << 20, 1 << 20);
  bool fin = false;
  s.set_on_data([&](BytesView data, bool f) {
    EXPECT_TRUE(data.empty());
    fin |= f;
  });
  (void)s.on_stream_frame(0, {}, true);
  EXPECT_TRUE(fin);
  EXPECT_TRUE(s.receive_finished());
}

TEST(QuicStream, WindowUpdateAfterHalfConsumed) {
  QuicStream s(3, 1 << 20, /*recv_window=*/1000);
  s.set_on_data([](BytesView, bool) {});
  const Bytes payload = make_bytes(600);
  (void)s.on_stream_frame(0, payload, false);
  s.on_consumed(600);
  const auto update = s.take_window_update(at_ms(1), milliseconds(10), 0);
  ASSERT_TRUE(update.has_value());
  EXPECT_EQ(*update, 1600u);  // consumed 600 + window 1000
  // No second update until another half-window is consumed.
  EXPECT_FALSE(s.take_window_update(at_ms(2), milliseconds(10), 0));
}

TEST(QuicStream, WindowAutotuneDoublesUnderFastConsumption) {
  QuicStream s(3, 1 << 20, 1000);
  s.set_on_data([](BytesView, bool) {});
  std::uint64_t offset = 0;
  std::size_t window_seen = 0;
  for (int i = 0; i < 6; ++i) {
    const Bytes chunk = make_bytes(600);
    (void)s.on_stream_frame(offset, chunk, false);
    s.on_consumed(600);
    offset += 600;
    // Updates 1 ms apart with a 10 ms RTT floor: reader outpaces window.
    if (auto up = s.take_window_update(at_ms(i), milliseconds(10), 16000)) {
      window_seen = static_cast<std::size_t>(*up - offset);
    }
  }
  EXPECT_GT(window_seen, 1000u);  // auto-tuned beyond the initial window
}

TEST(QuicStream, SendBacklogTracksUnsentBytes) {
  QuicStream s(3, 1 << 20, 1 << 20);
  s.write(make_bytes(5000), false);
  EXPECT_EQ(s.send_backlog(), 5000u);
  (void)s.take_chunk(1350, 1 << 20);
  EXPECT_EQ(s.send_backlog(), 3650u);
}

}  // namespace
}  // namespace longlook::quic
