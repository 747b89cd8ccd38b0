// Randomised property tests: core data structures checked against simple
// oracles under thousands of random operation sequences (seeded, so every
// failure is reproducible).
//
//  * QuicStream reassembly: any permutation of (possibly overlapping,
//    duplicated) frames delivers the exact original byte sequence once.
//  * AckManager ranges: always equal to a reference std::set of received
//    packet numbers.
//  * SentPacketManager: bytes_in_flight always equals the oracle's
//    outstanding-retransmittable-bytes under random ack/loss interleaving,
//    and the ring answers every query exactly as the map-based reference
//    (sent_packet_manager_reference.h) does.
//  * StreamBuffer: every copy_out equals the same range of a plain Bytes
//    model under random appends and releases, with patterned bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>

#include "quic/ack_manager.h"
#include "quic/sent_packet_manager.h"
#include "quic/stream.h"
#include "sent_packet_manager_reference.h"
#include "util/rng.h"
#include "util/stream_buffer.h"

namespace longlook::quic {
namespace {

TimePoint at_ms(std::int64_t ms) { return TimePoint{} + milliseconds(ms); }

class RandomSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomSeed, ReassemblyDeliversExactBytesUnderAnyFrameSchedule) {
  Rng rng(GetParam());
  const std::size_t total = 2000 + rng.uniform_int(6000);
  Bytes payload(total);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());

  // Cut the payload into random frames, duplicate ~30%, shuffle fully.
  struct Piece {
    std::uint64_t offset = 0;
    std::size_t len = 0;
    bool fin = false;
  };
  std::vector<Piece> pieces;
  std::size_t off = 0;
  while (off < total) {
    const std::size_t len =
        std::min<std::size_t>(1 + rng.uniform_int(900), total - off);
    pieces.push_back({off, len, off + len == total});
    off += len;
  }
  const std::size_t original = pieces.size();
  for (std::size_t i = 0; i < original; ++i) {
    if (rng.bernoulli(0.3)) pieces.push_back(pieces[rng.uniform_int(original)]);
  }
  for (std::size_t i = pieces.size(); i > 1; --i) {
    std::swap(pieces[i - 1], pieces[rng.uniform_int(i)]);
  }

  QuicStream stream(3, 1 << 22, 1 << 22);
  Bytes received;
  int fin_signals = 0;
  stream.set_on_data([&](BytesView data, bool fin) {
    received.insert(received.end(), data.begin(), data.end());
    if (fin) ++fin_signals;
  });
  for (const Piece& p : pieces) {
    (void)stream.on_stream_frame(p.offset,
                                 BytesView(payload).subspan(p.offset, p.len),
                                 p.fin);
  }
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_EQ(received, payload);       // byte-exact, no reordering/duplication
  EXPECT_EQ(fin_signals, 1);          // FIN delivered exactly once
  EXPECT_TRUE(stream.receive_finished());
}

TEST_P(RandomSeed, AckManagerRangesMatchReferenceSet) {
  Rng rng(GetParam() * 7 + 1);
  AckManager am;
  std::set<PacketNumber> reference;
  // Packet numbers arrive with sender-like locality (a sliding window with
  // bounded reordering) so the manager's 64-range bound never evicts state;
  // eviction under pathological gap patterns is a documented memory bound,
  // not an accounting error, and is tested separately.
  for (int i = 0; i < 3000; ++i) {
    const PacketNumber pn =
        1 + static_cast<PacketNumber>(i) / 3 + rng.uniform_int(30);
    const bool duplicate =
        am.on_packet_received(at_ms(i), pn, rng.bernoulli(0.9));
    EXPECT_EQ(duplicate, reference.count(pn) > 0) << "pn " << pn;
    reference.insert(pn);
    if (rng.bernoulli(0.05)) am.build_ack(at_ms(i));
    if (rng.bernoulli(0.02) && !reference.empty()) {
      // STOP_WAITING somewhere behind the frontier.
      const PacketNumber least =
          *reference.begin() +
          rng.uniform_int(*reference.rbegin() - *reference.begin() + 1);
      am.on_stop_waiting(least);
      reference.erase(reference.begin(), reference.lower_bound(least));
    }
  }
  // Flatten the manager's ranges and compare with the reference set.
  std::set<PacketNumber> flattened;
  for (const AckRange& r : am.ranges()) {
    ASSERT_LE(r.lo, r.hi);
    for (PacketNumber pn = r.lo; pn <= r.hi; ++pn) flattened.insert(pn);
  }
  EXPECT_EQ(flattened, reference);
  // Ranges must be disjoint and ascending with gaps between them.
  for (std::size_t i = 1; i < am.ranges().size(); ++i) {
    EXPECT_GT(am.ranges()[i].lo, am.ranges()[i - 1].hi + 1);
  }
}

TEST_P(RandomSeed, SentPacketManagerFlightAccountingMatchesOracle) {
  Rng rng(GetParam() * 13 + 5);
  LossDetectionConfig cfg;
  if (rng.bernoulli(0.3)) cfg.mode = LossDetectionMode::kAdaptiveNack;
  SentPacketManager spm(cfg);
  RttEstimator rtt;

  struct Oracle {
    std::size_t bytes = 0;
    // retransmittable and neither acked nor lost
    bool outstanding = false;
  };
  std::map<PacketNumber, Oracle> oracle;
  PacketNumber next_pn = 1;
  std::set<PacketNumber> acked;
  int clock = 0;

  auto oracle_in_flight = [&] {
    std::size_t sum = 0;
    for (const auto& [pn, o] : oracle) {
      if (o.outstanding) sum += o.bytes;
    }
    return sum;
  };

  for (int step = 0; step < 2000; ++step) {
    ++clock;
    const double dice = rng.uniform();
    if (dice < 0.55) {
      // Send a packet.
      const bool retransmittable = rng.bernoulli(0.9);
      const std::size_t bytes = retransmittable ? 200 + rng.uniform_int(1200) : 0;
      spm.on_packet_sent(next_pn, bytes, at_ms(clock), retransmittable, {});
      oracle[next_pn] = {bytes, retransmittable};
      ++next_pn;
    } else if (dice < 0.95 && next_pn > 1) {
      // Ack a random contiguous range (possibly already acked).
      const PacketNumber hi = 1 + rng.uniform_int(next_pn - 1);
      const PacketNumber lo = hi > 3 ? hi - rng.uniform_int(3) : 1;
      const auto result = spm.on_ack(
          AckFrame{hi, kNoDuration, {{lo, hi}}, at_ms(clock)}, at_ms(clock),
          rtt);
      for (PacketNumber pn = lo; pn <= hi; ++pn) {
        if (oracle.count(pn)) oracle[pn].outstanding = false;
      }
      for (const LostPacket& lost : result.lost) {
        oracle[lost.packet_number].outstanding = false;
      }
    } else if (rng.bernoulli(0.5)) {
      // RTO empties the flight.
      (void)spm.on_retransmission_timeout();
      for (auto& [pn, o] : oracle) o.outstanding = false;
    }
    ASSERT_EQ(spm.bytes_in_flight(), oracle_in_flight()) << "step " << step;
  }
}

// Comparable views of the manager's result records.
using RefKey =
    std::tuple<StreamId, std::uint64_t, std::size_t, bool, bool, bool>;
using AckedKey = std::tuple<PacketNumber, std::size_t, TimePoint>;

std::vector<RefKey> refs_of(const std::vector<StreamDataRef>& refs) {
  std::vector<RefKey> out;
  out.reserve(refs.size());
  for (const StreamDataRef& r : refs) {
    out.emplace_back(r.stream_id, r.offset, r.len, r.fin, r.handshake,
                     r.window_update);
  }
  return out;
}

std::vector<AckedKey> acked_of(const std::vector<AckedPacket>& acked) {
  std::vector<AckedKey> out;
  out.reserve(acked.size());
  for (const AckedPacket& a : acked) {
    out.emplace_back(a.packet_number, a.bytes, a.sent_time);
  }
  return out;
}

std::vector<std::pair<PacketNumber, std::size_t>> lost_of(
    const std::vector<LostPacket>& lost) {
  std::vector<std::pair<PacketNumber, std::size_t>> out;
  out.reserve(lost.size());
  for (const LostPacket& l : lost) out.emplace_back(l.packet_number, l.bytes);
  return out;
}

void expect_same_result(const AckProcessResult& ring,
                        const AckProcessResult& ref, int step) {
  EXPECT_EQ(acked_of(ring.acked), acked_of(ref.acked)) << "step " << step;
  EXPECT_EQ(lost_of(ring.lost), lost_of(ref.lost)) << "step " << step;
  EXPECT_EQ(refs_of(ring.lost_data), refs_of(ref.lost_data)) << "step " << step;
  EXPECT_EQ(acked_of(ring.spurious_acked), acked_of(ref.spurious_acked))
      << "step " << step;
  EXPECT_EQ(refs_of(ring.spurious_data), refs_of(ref.spurious_data))
      << "step " << step;
  EXPECT_EQ(ring.rtt_updated, ref.rtt_updated) << "step " << step;
  EXPECT_EQ(ring.spurious_loss_detected, ref.spurious_loss_detected)
      << "step " << step;
  EXPECT_EQ(ring.largest_newly_acked, ref.largest_newly_acked)
      << "step " << step;
}

// The sender's packet-number ring against the map it replaced, in all three
// loss-detection modes, under schedules shaped like the connection's: data
// packets registered in pn and time order; ack-only packets whose
// registration is deferred (as send_ack_now defers them), so they land out
// of order and, after the front has moved on, below it; ACK frames with
// overlapping, repeated and out-of-order ranges; late ACKs of declared-lost
// packets; TLP and RTO; and idle gaps longer than 2 RTOs so stale losses are
// collected.
TEST_P(RandomSeed, SentPacketRingMatchesMapReference) {
  for (const LossDetectionMode mode :
       {LossDetectionMode::kFixedNack, LossDetectionMode::kAdaptiveNack,
        LossDetectionMode::kTimeThreshold}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Rng rng(GetParam() * 17 + static_cast<std::uint64_t>(mode));
    LossDetectionConfig cfg;
    cfg.mode = mode;
    SentPacketManager ring(cfg);
    ReferenceSentPacketManager ref(cfg);
    RttEstimator ring_rtt;
    RttEstimator ref_rtt;
    TimePoint now{};
    PacketNumber next_pn = 1;
    std::uint64_t next_offset = 0;
    std::vector<PacketNumber> deferred;  // ack-only pns not yet registered
    std::vector<PacketNumber> lost;      // candidates for late ACKs

    auto register_packet = [&](PacketNumber pn, bool retransmittable) {
      std::size_t bytes = 0;
      std::vector<StreamDataRef> data;
      if (retransmittable) {
        bytes = 100 + rng.uniform_int(1250);
        // Some data packets carry no stream data (TLP must skip them).
        const std::size_t n = rng.uniform_int(3);
        for (std::size_t i = 0; i < n; ++i) {
          StreamDataRef r;
          r.stream_id = 3 + 2 * rng.uniform_int(4);
          r.offset = next_offset;
          r.len = 1 + rng.uniform_int(500);
          r.fin = rng.bernoulli(0.05);
          next_offset += r.len;
          data.push_back(r);
        }
      }
      ring.on_packet_sent(pn, bytes, now, retransmittable, data);
      ref.on_packet_sent(pn, bytes, now, retransmittable, std::move(data));
    };

    for (int step = 0; step < 3000; ++step) {
      now += microseconds(static_cast<std::int64_t>(rng.uniform_int(3000)));
      const double dice = rng.uniform();
      AckProcessResult ring_out;
      AckProcessResult ref_out;
      if (dice < 0.35) {
        register_packet(next_pn++, true);
      } else if (dice < 0.40) {
        register_packet(next_pn++, false);
      } else if (dice < 0.48) {
        deferred.push_back(next_pn++);
      } else if (dice < 0.55 && !deferred.empty()) {
        const std::size_t i = rng.uniform_int(deferred.size());
        register_packet(deferred[i], false);
        deferred.erase(deferred.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (dice < 0.90 && ref.largest_sent() > 0) {
        // An ACK: mostly recent packets, with holes, overlaps, repeats and
        // late single-packet ranges for packets already declared lost.
        const PacketNumber top = ref.largest_sent();
        AckFrame ack;
        ack.largest_acked = top - std::min<PacketNumber>(
                                      top - 1, rng.uniform_int(8));
        ack.ack_delay =
            microseconds(static_cast<std::int64_t>(rng.uniform_int(5000)));
        const std::size_t ranges = 1 + rng.uniform_int(4);
        for (std::size_t r = 0; r < ranges; ++r) {
          const PacketNumber hi =
              r == 0 ? ack.largest_acked
                     : ack.largest_acked -
                           rng.uniform_int(std::min<PacketNumber>(
                               ack.largest_acked, 120));
          const PacketNumber width = rng.uniform_int(std::min<PacketNumber>(
              hi, rng.bernoulli(0.3) ? 200 : 20));
          ack.ranges.push_back({hi - width, hi});
          if (rng.bernoulli(0.1)) ack.ranges.push_back(ack.ranges.back());
        }
        if (!lost.empty() && rng.bernoulli(0.3)) {
          const PacketNumber pn = lost[rng.uniform_int(lost.size())];
          if (pn <= ack.largest_acked) ack.ranges.push_back({pn, pn});
        }
        if (rng.bernoulli(0.1)) ack.ranges.pop_back();
        ring_out = ring.on_ack(ack, now, ring_rtt);
        ref_out = ref.on_ack(ack, now, ref_rtt);
      } else if (dice < 0.94) {
        ring_out = ring.detect_time_losses(now, ring_rtt);
        ref_out = ref.detect_time_losses(now, ref_rtt);
      } else if (dice < 0.97) {
        EXPECT_EQ(refs_of(ring.on_retransmission_timeout()),
                  refs_of(ref.on_retransmission_timeout()))
            << "step " << step;
      } else if (dice < 0.99) {
        // Idle past 2 RTOs: the next ACK collects every stale loss.
        now += 3 * ref_rtt.retransmission_timeout();
      }
      expect_same_result(ring_out, ref_out, step);
      for (const LostPacket& l : ref_out.lost) lost.push_back(l.packet_number);
      ASSERT_EQ(ring.bytes_in_flight(), ref.bytes_in_flight())
          << "step " << step;
      ASSERT_EQ(ring.least_unacked(), ref.least_unacked()) << "step " << step;
      ASSERT_EQ(ring.has_retransmittable_in_flight(),
                ref.has_retransmittable_in_flight())
          << "step " << step;
      ASSERT_EQ(ring.earliest_loss_time(ring_rtt),
                ref.earliest_loss_time(ref_rtt))
          << "step " << step;
      ASSERT_EQ(refs_of(ring.tail_loss_probe_data()),
                refs_of(ref.tail_loss_probe_data()))
          << "step " << step;
      ASSERT_EQ(ring.largest_sent(), ref.largest_sent()) << "step " << step;
      ASSERT_EQ(ring.current_nack_threshold(), ref.current_nack_threshold())
          << "step " << step;
      ASSERT_EQ(ring.total_packets_declared_lost(),
                ref.total_packets_declared_lost())
          << "step " << step;
      ASSERT_EQ(ring.total_spurious_losses(), ref.total_spurious_losses())
          << "step " << step;
      ASSERT_EQ(ring_rtt.smoothed(), ref_rtt.smoothed()) << "step " << step;
      ASSERT_FALSE(HasFailure()) << "step " << step;
    }
  }
}

TEST_P(RandomSeed, StreamChunkingCoversEveryByteExactlyOnce) {
  Rng rng(GetParam() * 31 + 9);
  const std::size_t total = 5000 + rng.uniform_int(20000);
  QuicStream stream(3, 1 << 22, 1 << 22);
  stream.write(Bytes(total, 0xAA), true);

  std::vector<bool> covered(total, false);
  bool fin_seen = false;
  while (stream.has_pending_data()) {
    const std::size_t max_len = 1 + rng.uniform_int(1350);
    auto chunk = stream.take_chunk(max_len, 1 << 22);
    ASSERT_TRUE(chunk.has_value());
    for (std::size_t i = 0; i < chunk->data.size(); ++i) {
      const std::size_t pos = static_cast<std::size_t>(chunk->offset) + i;
      ASSERT_LT(pos, total);
      EXPECT_FALSE(covered[pos]) << "byte sent twice without requeue";
      covered[pos] = true;
    }
    fin_seen |= chunk->fin;
    // Occasionally pretend a chunk was lost and requeue it: coverage stays
    // exact because we un-mark before the retransmission re-covers it.
    if (rng.bernoulli(0.1) && !chunk->data.empty()) {
      for (std::size_t i = 0; i < chunk->data.size(); ++i) {
        covered[static_cast<std::size_t>(chunk->offset) + i] = false;
      }
      stream.requeue(chunk->offset, chunk->data.size(), chunk->fin);
      fin_seen &= !chunk->fin;
    }
  }
  EXPECT_TRUE(fin_seen);
  EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                          [](bool b) { return b; }));
}

// Random appends (empty, small, around a block, several blocks), reads of
// random held ranges and releases at random offsets, checked after every
// step against a plain Bytes holding everything ever appended.
TEST_P(RandomSeed, StreamBufferMatchesBytesModel) {
  constexpr std::uint64_t kBlock = util::StreamBuffer::kBlockBytes;
  Rng rng(GetParam() * 31 + 5);
  util::StreamBuffer buf;
  Bytes model;
  std::uint64_t expected_begin = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(step);
    const std::uint64_t end = model.size();
    switch (rng.uniform_int(4)) {
      case 0:
      case 1: {
        std::uint64_t n = 0;
        switch (rng.uniform_int(4)) {
          case 0: n = rng.uniform_int(3); break;
          case 1: n = rng.uniform_int(2000); break;
          case 2: n = kBlock - 2 + rng.uniform_int(5); break;
          default: n = rng.uniform_int(4 * kBlock); break;
        }
        Bytes data(static_cast<std::size_t>(n));
        for (std::uint8_t& b : data) {
          b = static_cast<std::uint8_t>(1 + rng.uniform_int(255));
        }
        buf.append(data);
        model.insert(model.end(), data.begin(), data.end());
        break;
      }
      case 2: {
        if (end == expected_begin) break;
        const std::uint64_t lo =
            expected_begin + rng.uniform_int(end - expected_begin);
        const std::uint64_t len = rng.uniform_int(end - lo + 1);
        const auto first = model.begin() + static_cast<std::ptrdiff_t>(lo);
        EXPECT_EQ(buf.copy_out(lo, static_cast<std::size_t>(len)),
                  Bytes(first, first + static_cast<std::ptrdiff_t>(len)))
            << "copy_out(" << lo << ", " << len << ")";
        break;
      }
      default: {
        const std::uint64_t at = rng.uniform_int(end + kBlock + 1);
        buf.release_before(at);
        expected_begin =
            std::max(expected_begin, std::min(at, end) / kBlock * kBlock);
        break;
      }
    }
    ASSERT_EQ(buf.begin_offset(), expected_begin);
    ASSERT_EQ(buf.end_offset(), model.size());
    ASSERT_EQ(buf.size(), model.size() - expected_begin);
  }
  const auto first = model.begin() + static_cast<std::ptrdiff_t>(expected_begin);
  EXPECT_EQ(buf.copy_out(expected_begin, buf.size()), Bytes(first, model.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSeed, ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace longlook::quic
