// Video QoE session (the paper's Sec. 5.3 tool): stream a one-hour video at
// a chosen quality for 60 seconds over an impaired link and print the QoE
// metrics the paper logs — time to start, fraction loaded, rebuffering.
//
// Usage: video_session [tiny|medium|hd720|hd2160] [rate_mbps] [loss_pct]
// e.g.:  ./build/examples/video_session hd2160 100 1
#include <cstdio>
#include <cstdlib>

#include "harness/compare.h"
#include "video/streaming.h"

using namespace longlook;

int main(int argc, char** argv) {
  video::VideoQuality quality = video::quality_hd720();
  if (argc > 1) {
    for (const auto& q : video::all_qualities()) {
      if (q.name == argv[1]) quality = q;
    }
  }
  harness::Scenario scenario;
  scenario.rate_bps = (argc > 2 ? std::atoll(argv[2]) : 100) * 1'000'000;
  scenario.loss_rate = (argc > 3 ? std::atof(argv[3]) : 1.0) / 100.0;

  std::printf("Streaming a 1-hour video at '%s' (%.1f Mbps encode) over "
              "%lld Mbps with %.1f%% loss, watching for 60 s...\n",
              quality.name.c_str(), quality.bitrate_bps / 1e6,
              static_cast<long long>(scenario.rate_bps / 1'000'000),
              scenario.loss_rate * 100);

  const video::QoeMetrics m =
      harness::run_video(scenario, quality, harness::Protocol::kQuic);
  std::printf(
      "\nQoE metrics (cf. Table 6):\n"
      "  time to start:        %.2f s\n"
      "  video loaded in 1min: %.2f %%\n"
      "  buffering/play ratio: %.1f %%\n"
      "  rebuffer events:      %d\n"
      "  rebuffers per played second: %.3f\n"
      "  played %.1f s, stalled %.1f s\n",
      m.time_to_start_s, m.fraction_loaded_pct, m.buffer_play_ratio_pct,
      m.rebuffer_count, m.rebuffers_per_played_sec, m.played_seconds,
      m.stalled_seconds);
  return 0;
}
