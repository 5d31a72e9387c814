// Workload definitions and the untimed record pass.
//
// The record pass runs the in-process reference session — a serial
// MechanismSession whose transport is ClientFleet's (ProduceRound, client
// faults, IngestBatch) — and captures, per round, the RoundRequest it
// announced, the round's frames pre-encoded as contiguous byte streams
// (one per connection or aggregator node, end-of-round markers included)
// and, per timestamp, the reference release. The timed replay pass then
// stands up the real collector stack and feeds it only those bytes.
#ifndef REPLAYBENCH_RECORDING_H_
#define REPLAYBENCH_RECORDING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/postprocess.h"
#include "core/mechanism.h"
#include "hostile.h"
#include "service/ingest.h"
#include "service/session.h"

namespace replaybench {

// How the replay hands the recorded bytes to the collector.
enum class FeedMode : uint8_t {
  kTcp,     // striped over loopback TCP connections into SocketListener
  kMemory,  // FrameDecoder on a feeder thread standing in for the reader
  kTree,    // per-aggregator slices; partial sketches up to a RootSession
};

struct WorkloadSpec {
  std::string name;
  std::string mechanism;  // LBA, LPA, LBD
  std::string fo;         // GRR, OLH, HR
  std::size_t domain = 0;
  uint64_t users = 0;
  ldpids::PostProcess post_process = ldpids::PostProcess::kNone;
  FeedMode feed = FeedMode::kMemory;
  std::size_t lanes = 1;       // connections / aggregator nodes
  bool hostile = false;
  bool observability = false;  // metrics, flight recorder, live scrapes
  // Releases one replay serves: at least 200, so a replay's p95 alone has
  // 10 samples beyond it.
  std::size_t timestamps = 200;
  // Stated tolerance for trace.unattributed_ratio: the share of Advance
  // wall its own spans may leave uncovered before a traced run fails.
  double max_unattributed = 0.25;
};

// Shared by every workload: the w-event window and the replay session's
// pipeline depth.
inline constexpr std::size_t kWindow = 20;
inline constexpr std::size_t kPipelineDepth = 2;

const std::vector<WorkloadSpec>& Workloads();
// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Session id every recorded frame carries.
inline constexpr uint64_t kSessionId = 1;

// The recorded identity of one announced round.
struct RecordedRequest {
  uint64_t timestamp = 0;
  uint64_t epsilon_bits = 0;
  uint64_t round_index = 0;
  bool whole_population = true;
  std::vector<uint32_t> cohort;  // population-division rounds only
};

RecordedRequest RecordRequest(const ldpids::service::RoundRequest& request);

// True when `request` is the recorded round: same timestamp, epsilon bits,
// round index and cohort (compared element-wise).
bool SameRequest(const ldpids::service::RoundRequest& request,
                 const RecordedRequest& recorded);

struct RecordedRound {
  RecordedRequest request;
  uint64_t cohort_size = 0;
  // Pre-encoded frames, one contiguous stream per lane.
  std::vector<std::vector<uint8_t>> lanes;
  // Collector counters this round's streams must produce (frames for
  // every workload; the injected faults on the hostile one).
  NetworkCounts network;
};

struct Recording {
  const WorkloadSpec* spec = nullptr;
  // Rounds of the served timestamps, plus the first round of the next
  // one: a pipelined replay announces that round before its last release.
  std::vector<RecordedRound> rounds;
  std::size_t served_rounds = 0;
  std::vector<ldpids::StepResult> releases;  // reference r_t
  // Reference ingest accounting over the served rounds.
  ldpids::service::IngestStats reference_stats;
  uint64_t produce_ns = 0;        // ClientFleet::ProduceRound wall time
  uint64_t produced_reports = 0;
  uint64_t traffic_bytes = 0;
};

// Hard ceiling on pre-encoded traffic held in memory by one run.
inline constexpr uint64_t kTrafficCeilingBytes = uint64_t{320} << 20;

ldpids::MechanismConfig ConfigFor(const WorkloadSpec& spec);

// Runs the reference session for spec.timestamps + 1 steps and returns
// the recording. Throws std::runtime_error if the traffic would exceed
// kTrafficCeilingBytes.
Recording Record(const WorkloadSpec& spec, uint64_t seed,
                 std::size_t threads);

}  // namespace replaybench

#endif  // REPLAYBENCH_RECORDING_H_
