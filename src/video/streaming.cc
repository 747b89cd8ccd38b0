#include "video/streaming.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace longlook::video {

namespace {
constexpr Duration kVideoLength = seconds(3600);  // one-hour video
constexpr Duration kWatchTime = seconds(60);      // measurement window
constexpr Duration kSegmentLength = seconds(2);
constexpr Duration kInitialBuffer = seconds(2);   // playback start threshold
constexpr Duration kRebufferResume = seconds(4);  // resume after a stall
constexpr Duration kMaxBufferAhead = seconds(120);  // fetch throttle
constexpr auto kTotalSegments =
    static_cast<std::size_t>(kVideoLength / kSegmentLength);
}  // namespace

VideoQuality quality_tiny() { return {"tiny", 300'000}; }
VideoQuality quality_medium() { return {"medium", 750'000}; }
VideoQuality quality_hd720() { return {"hd720", 2'500'000}; }
VideoQuality quality_hd2160() { return {"hd2160", 45'000'000}; }

std::vector<VideoQuality> all_qualities() {
  return {quality_tiny(), quality_medium(), quality_hd720(), quality_hd2160()};
}

StreamingSession::StreamingSession(Simulator& sim,
                                   http::ClientSession& session,
                                   VideoQuality quality)
    : sim_(sim), quality_(std::move(quality)), runner_(sim, session, {}) {}

void StreamingSession::start() {
  started_at_ = sim_.now();
  sim_.schedule(kWatchTime, [this, token = std::weak_ptr<char>(live_token_)] {
    if (token.expired()) return;
    finish();
  });
  runner_.start([this](const workload::ScenarioResult&) {
    fetch_next_segment();
    playback_tick();
  });
}

void StreamingSession::fetch_next_segment() {
  // One segment in flight at a time.
  if (finished_ || segments_requested_ > segments_fetched_) return;
  if (segments_requested_ >= kTotalSegments) return;
  // Throttle: don't fetch beyond the buffered-ahead cap.
  if (buffered_seconds_ >= to_seconds(kMaxBufferAhead)) return;
  ++segments_requested_;
  const std::int64_t bytes = std::max<std::int64_t>(
      0, quality_.bitrate_bps / 8 * kSegmentLength.count() / 1000000000);
  runner_.fetch(segments_requested_, static_cast<std::uint64_t>(bytes),
                [this] { on_segment_complete(); });
}

void StreamingSession::on_segment_complete() {
  if (finished_) return;
  ++segments_fetched_;
  buffered_seconds_ += to_seconds(kSegmentLength);

  if (!metrics_.started &&
      buffered_seconds_ >= to_seconds(kInitialBuffer)) {
    metrics_.started = true;
    metrics_.time_to_start_s = to_seconds(sim_.now() - started_at_);
  }
  if (stalled_ && buffered_seconds_ >= to_seconds(kRebufferResume)) {
    stalled_ = false;
    metrics_.stalled_seconds += to_seconds(sim_.now() - stall_started_);
  }
  fetch_next_segment();
}

void StreamingSession::playback_tick() {
  if (finished_) return;
  constexpr double kTick = 0.1;  // seconds of playback per tick
  if (metrics_.started && !stalled_) {  // playing
    const double consumed = std::min(buffered_seconds_, kTick);
    buffered_seconds_ -= consumed;
    metrics_.played_seconds += consumed;
    if (buffered_seconds_ <= 0) {
      // Buffer drained: rebuffer event.
      stalled_ = true;
      stall_started_ = sim_.now();
      ++metrics_.rebuffer_count;
    }
  }
  fetch_next_segment();  // throttle may have opened up
  tick_event_ = sim_.schedule(
      milliseconds(100), [this, token = std::weak_ptr<char>(live_token_)] {
        if (token.expired()) return;
        playback_tick();
      });
}

void StreamingSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (tick_event_ != kInvalidEventId) sim_.cancel(tick_event_);
  if (stalled_) {
    metrics_.stalled_seconds += to_seconds(sim_.now() - stall_started_);
  }
  metrics_.fraction_loaded_pct =
      100.0 * static_cast<double>(segments_fetched_) *
      to_seconds(kSegmentLength) / to_seconds(kVideoLength);
  const double played = metrics_.played_seconds;
  if (played > 0) {
    metrics_.buffer_play_ratio_pct = 100.0 * metrics_.stalled_seconds / played;
    metrics_.rebuffers_per_played_sec =
        static_cast<double>(metrics_.rebuffer_count) / played;
  }
}

}  // namespace longlook::video
