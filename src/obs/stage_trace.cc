#include "obs/stage_trace.h"

#include "obs/flight_recorder.h"

namespace ldpids::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kAnnounce:
      return "announce";
    case Stage::kTransportRtt:
      return "transport_rtt";
    case Stage::kFrameDecode:
      return "frame_decode";
    case Stage::kArenaDecode:
      return "arena_decode";
    case Stage::kShardFold:
      return "shard_fold";
    case Stage::kMerge:
      return "merge";
    case Stage::kSketchMerge:
      return "sketch_merge";
    case Stage::kEstimate:
      return "estimate";
    case Stage::kPostProcess:
      return "post_process";
  }
  return "unknown";
}

StageSink::StageSink(MetricsRegistry* registry, FlightRecorder* recorder,
                     const std::string& label)
    : recorder_(recorder) {
  if (registry != nullptr) {
    for (std::size_t i = 0; i < kNumStages; ++i) {
      Labels labels{{"stage", StageName(static_cast<Stage>(i))}};
      if (!label.empty()) labels.emplace_back("session", label);
      histograms_[i] = &registry->GetHistogram(kStageDurationMetric, labels);
    }
  }
  if (recorder_ != nullptr) {
    track_ = recorder_->RegisterTrack(label.empty() ? "session" : label);
  }
}

void StageSink::Observe(Stage stage, StageWindow window) const {
  Histogram* h = histograms_[static_cast<std::size_t>(stage)];
  if (h != nullptr) h->Observe(window.duration_ns());
}

void StageSink::Trace(Stage stage, uint64_t round, StageWindow window,
                      uint64_t reports, uint64_t drops) const {
  if (recorder_ == nullptr) return;
  recorder_->Record(track_, stage, round, window.start_ns, window.end_ns,
                    reports, drops);
}

void StageSink::Begin(Stage stage, uint64_t round) const {
  if (recorder_ != nullptr) {
    recorder_->BeginStage(track_, stage, round, NowNs());
  }
}

void StageSink::End(Stage stage) const {
  if (recorder_ != nullptr) recorder_->EndStage(track_, stage);
}

void StageSink::Close() const {
  if (recorder_ != nullptr) recorder_->CloseTrack(track_);
}

}  // namespace ldpids::obs
