// Unit tests: video streaming QoE model — startup, steady playback at
// sustainable bitrates, rebuffering when the link can't keep up, the fetch
// throttle, and a frozen table of Table 6 runs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "harness/compare.h"
#include "obs/profiler.h"
#include "video/streaming.h"

namespace longlook::video {
namespace {

QoeMetrics stream(const harness::Scenario& scenario,
                  const VideoQuality& quality) {
  return harness::run_video(scenario, quality, harness::Protocol::kQuic);
}

TEST(Video, SmoothPlaybackAtSustainableBitrate) {
  harness::Scenario s;
  s.rate_bps = 50'000'000;
  const QoeMetrics m = stream(s, quality_hd720());  // 2.5 Mbps << 50 Mbps
  EXPECT_TRUE(m.started);
  EXPECT_LT(m.time_to_start_s, 2.0);
  EXPECT_EQ(m.rebuffer_count, 0);
  EXPECT_NEAR(m.played_seconds, 60.0 - m.time_to_start_s, 1.0);
}

TEST(Video, RebuffersWhenBitrateExceedsLink) {
  harness::Scenario s;
  s.rate_bps = 20'000'000;  // hd2160 needs 45 Mbps
  const QoeMetrics m = stream(s, quality_hd2160());
  EXPECT_TRUE(m.started);
  EXPECT_GT(m.rebuffer_count, 0);
  EXPECT_GT(m.stalled_seconds, 1.0);
  EXPECT_LT(m.played_seconds, 55.0);
}

TEST(Video, FractionLoadedScalesWithBitrate) {
  // On a link that sustains the tiny encode but not hd720, the tiny encode
  // covers a larger fraction of the hour-long video within the watch time.
  harness::Scenario s;
  s.rate_bps = 2'000'000;  // 2 Mbps: tiny (0.3 Mbps) ok, hd720 (2.5) is not
  const QoeMetrics tiny = stream(s, quality_tiny());
  const QoeMetrics hd = stream(s, quality_hd720());
  EXPECT_GT(tiny.fraction_loaded_pct, hd.fraction_loaded_pct);
  EXPECT_GT(hd.rebuffer_count, 0);
  EXPECT_EQ(tiny.rebuffer_count, 0);
}

TEST(Video, ThrottleCapsBufferedAhead) {
  harness::Scenario s;
  s.rate_bps = 100'000'000;
  const QoeMetrics m = stream(s, quality_tiny());  // trivially sustainable
  // The fetcher stops at 120 s buffered ahead of the playhead, which has
  // advanced through the 60 s watched: 180 s of the hour, 5% = 500 bp.
  EXPECT_EQ(std::llround(m.fraction_loaded_pct * 100), 500);
}

TEST(Video, QualityLadderIsOrdered) {
  const auto all = all_qualities();
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GT(all[i].bitrate_bps, all[i - 1].bitrate_bps);
  }
  EXPECT_EQ(all[0].name, "tiny");
  EXPECT_EQ(all[3].name, "hd2160");
}

TEST(Video, MetricsInternallyConsistent) {
  harness::Scenario s;
  s.rate_bps = 20'000'000;
  const QoeMetrics m = stream(s, quality_hd2160());
  if (m.played_seconds > 0) {
    EXPECT_NEAR(m.rebuffers_per_played_sec,
                m.rebuffer_count / m.played_seconds, 1e-9);
    EXPECT_NEAR(m.buffer_play_ratio_pct,
                100.0 * m.stalled_seconds / m.played_seconds, 1e-9);
  }
}

// Table 6's scenario (100 Mbps, 1% loss, round 0's seed 1300) at the
// throttle-bound tier and the rebuffering tier, on both stacks. Pins the QoE
// exactly and the run's simulator and link work, so any change to what goes
// on the wire fails here: a request line one byte longer changes
// bytes_moved even where the uplink's spare capacity hides it in time.
TEST(Video, FrozenTable6Runs) {
  using harness::Protocol;
  struct Row {
    VideoQuality quality;
    Protocol protocol = Protocol::kQuic;
    std::int64_t time_to_start_ns = 0;
    std::int64_t segments = 0;  // fetched within the watch window
    int rebuffers = 0;
    std::int64_t played_us = 0;
    std::int64_t stalled_us = 0;
    std::uint64_t sim_events = 0;
    std::uint64_t timer_ops = 0;
    std::uint64_t packets_forwarded = 0;
    std::uint64_t bytes_moved = 0;
  };
  const Row rows[] = {
      {quality_tiny(), Protocol::kQuic, 121775325, 90, 0, 59900000, 0, 56417,
       81425, 9313, 7370121},
      {quality_tiny(), Protocol::kTcp, 324573854, 90, 0, 59600000, 0, 36606,
       53960, 7719, 7277247},
      {quality_hd2160(), Protocol::kQuic, 12912194192, 4, 2, 6000000,
       41167409, 478754, 647283, 76855, 57714156},
      {quality_hd2160(), Protocol::kTcp, 28141955328, 2, 1, 2000000, 29891815,
       182990, 248725, 32748, 30129565},
  };
  harness::Scenario s;
  s.rate_bps = 100'000'000;
  s.loss_rate = 0.01;
  s.seed = 1300;
  for (const Row& row : rows) {
    const std::string label =
        row.quality.name +
        (row.protocol == Protocol::kQuic ? " over QUIC" : " over TCP");
    obs::Profiler profiler;
    const QoeMetrics m =
        harness::run_video(s, row.quality, row.protocol, &profiler);
    // One segment is 2 s of a 3600 s video: 1/18 of a percent.
    EXPECT_EQ(std::llround(m.time_to_start_s * 1e9), row.time_to_start_ns)
        << label;
    EXPECT_EQ(std::llround(m.fraction_loaded_pct * 18), row.segments)
        << label;
    EXPECT_EQ(m.rebuffer_count, row.rebuffers) << label;
    EXPECT_EQ(std::llround(m.played_seconds * 1e6), row.played_us) << label;
    EXPECT_EQ(std::llround(m.stalled_seconds * 1e6), row.stalled_us)
        << label;
    const obs::ProfilerSnapshot snap = profiler.snapshot();
    EXPECT_EQ(snap.counter("sim_events"), row.sim_events) << label;
    EXPECT_EQ(snap.counter("timer_ops"), row.timer_ops) << label;
    EXPECT_EQ(snap.counter("packets_forwarded"), row.packets_forwarded)
        << label;
    EXPECT_EQ(snap.counter("bytes_moved"), row.bytes_moved) << label;
  }
}

}  // namespace
}  // namespace longlook::video
