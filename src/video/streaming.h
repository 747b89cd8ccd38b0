// Video-streaming QoE model (Sec. 5.3, Table 6).
//
// Mirrors the paper's tool: open a one-hour video at a fixed quality level,
// let it run for 60 seconds, and log QoE metrics — time to start, fraction
// of the video loaded, rebuffer count, and buffering/playing time ratio.
//
// The player is a DASH-style segment fetcher: 2-second segments requested
// one at a time through a workload::ScenarioRunner (the request a page
// object makes), playback starting once an initial buffer exists,
// rebuffering whenever the buffer drains, and a buffered-ahead cap that
// throttles fetching (like YouTube's player).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/executor.h"

namespace longlook::video {

struct VideoQuality {
  std::string name;
  std::int64_t bitrate_bps = 0;
};

// The paper's four tested tiers (Table 2/6). Bitrates follow typical
// YouTube ladder values for a 1-hour VOD encode.
VideoQuality quality_tiny();    // 144p
VideoQuality quality_medium();  // 360p
VideoQuality quality_hd720();   // 720p
VideoQuality quality_hd2160();  // 4K
std::vector<VideoQuality> all_qualities();

struct QoeMetrics {
  double time_to_start_s = 0;
  double fraction_loaded_pct = 0;       // of the whole video, after 60 s
  double buffer_play_ratio_pct = 0;     // stall time / playing time * 100
  int rebuffer_count = 0;
  double rebuffers_per_played_sec = 0;
  double played_seconds = 0;
  double stalled_seconds = 0;
  bool started = false;
};

class StreamingSession {
 public:
  // `session` must outlive the player.
  StreamingSession(Simulator& sim, http::ClientSession& session,
                   VideoQuality quality);

  // Connects and runs the player: the 60 s watch window opens now, fetching
  // and the 100 ms playback tick start at connect.
  void start();

  const QoeMetrics& metrics() const { return metrics_; }
  bool finished() const { return finished_; }

 private:
  void fetch_next_segment();
  void on_segment_complete();
  void playback_tick();
  void finish();

  Simulator& sim_;
  const VideoQuality quality_;
  workload::ScenarioRunner runner_;  // empty spec: completes at connect
  QoeMetrics metrics_;

  TimePoint started_at_{};
  std::size_t segments_fetched_ = 0;   // completed downloads
  std::size_t segments_requested_ = 0;
  bool stalled_ = false;  // started, buffer drained, not yet resumed
  TimePoint stall_started_{};
  double buffered_seconds_ = 0;
  bool finished_ = false;
  EventId tick_event_ = kInvalidEventId;
  // Liveness token for the watch-time and playback-tick events: a session
  // destroyed mid-watch must not have stale callbacks touch freed state.
  std::shared_ptr<char> live_token_ = std::make_shared<char>(0);
};

}  // namespace longlook::video
