// Per-round pipeline stage tracing.
//
// The serving data plane processes each round through a fixed sequence
// of stages; under pipelining (pipeline_depth >= 2) round t+1's
// transport overlaps round t's estimation, so per-stage durations are
// the only way to see where a deployment's time actually goes. A stage of
// one round is one StageWindow (absolute steady-clock start/end), and a
// StageSink records it exactly once: the window's duration goes into the
// `ldpids_stage_duration_ns` histogram labeled {stage=..., session=...}
// and the same window into the flight recorder (obs/flight_recorder.h),
// so histograms and trace can never disagree about a stage.
#ifndef LDPIDS_OBS_STAGE_TRACE_H_
#define LDPIDS_OBS_STAGE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace ldpids::obs {

class FlightRecorder;  // obs/flight_recorder.h

// One pipeline stage of a round's life, in data-plane order.
enum class Stage : uint8_t {
  kAnnounce = 0,      // mechanism announces the round to clients
  kTransportRtt,      // client round-trip outside aggregator compute
  kFrameDecode,       // wire frames -> packets (socket recv drains)
  kArenaDecode,       // packets -> columnar ReportArena rows
  kShardFold,         // arena slices folded into per-shard sketches
  kMerge,             // shard sketches merged into the round sketch
  kSketchMerge,       // children's partial sketches folded at a tree root
  kEstimate,          // sketch -> frequency estimate vector
  kPostProcess,       // mechanism post-processing + release publication
};
inline constexpr std::size_t kNumStages = 9;
static_assert(kNumStages == static_cast<std::size_t>(Stage::kPostProcess) + 1,
              "kNumStages must cover every Stage: each gets a histogram");

// Canonical label value for a stage ("announce", "transport_rtt", ...).
const char* StageName(Stage stage);

// The metric family every stage duration lands in.
inline constexpr char kStageDurationMetric[] = "ldpids_stage_duration_ns";

// One stage's wall window on the NowNs() clock. A window that was never
// filled (end 0) means the stage did not run, or was not timed.
struct StageWindow {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;

  bool filled() const { return end_ns != 0; }
  uint64_t duration_ns() const {
    return end_ns > start_ns ? end_ns - start_ns : 0;
  }
};

// The single sink for a session's stage timing. Either consumer may be
// absent; a sink with neither is inert, so call sites never branch.
// Const methods are safe from any thread (histograms and the recorder are
// lock-free).
class StageSink {
 public:
  StageSink() = default;
  // Registers all kNumStages histograms labeled {session=label,
  // stage=<name>} (session omitted when empty) when `registry` is
  // non-null, and one recorder track named `label` (or "session") when
  // `recorder` is.
  StageSink(MetricsRegistry* registry, FlightRecorder* recorder,
            const std::string& label);

  // True when either consumer is attached (the stage is worth timing).
  bool enabled() const {
    return histograms_[0] != nullptr || recorder_ != nullptr;
  }

  // Records one stage of one round: observes the window's duration into
  // the stage histogram and writes the window to the recorder (clearing
  // the track's in-flight mark for the stage). `reports`/`drops` annotate
  // the trace event.
  void Record(Stage stage, uint64_t round, StageWindow window,
              uint64_t reports = 0, uint64_t drops = 0) const {
    Observe(stage, window);
    Trace(stage, round, window, reports, drops);
  }
  // Record's two halves, for the announce stage alone: the histogram
  // counts every announced round when it is announced, while the trace
  // event joins the round's event chain only once the round is claimed —
  // a prefetched round the mechanism never consumes has no chain.
  void Observe(Stage stage, StageWindow window) const;
  void Trace(Stage stage, uint64_t round, StageWindow window,
             uint64_t reports = 0, uint64_t drops = 0) const;

  // Recorder in-flight marks and track lifetime (see FlightRecorder);
  // no-ops without a recorder.
  void Begin(Stage stage, uint64_t round) const;
  void End(Stage stage) const;
  void Close() const;

 private:
  Histogram* histograms_[kNumStages] = {};
  FlightRecorder* recorder_ = nullptr;
  uint32_t track_ = 0;
};

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_STAGE_TRACE_H_
