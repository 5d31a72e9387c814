// The timed replay pass: stands up the real collector stack for one
// workload, feeds it only the recorded bytes in a closed loop (a round's
// bytes are sent when the session announces that round), drives Advance()
// back to back, and checks every request, release and counter against the
// recording.
#ifndef REPLAYBENCH_REPLAY_H_
#define REPLAYBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fo/sketch_wire.h"
#include "recording.h"
#include "service/ingest.h"
#include "span_log.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"

namespace replaybench {

struct ReplayOptions {
  std::size_t threads = 1;    // session pool lanes
  SpanLog* spans = nullptr;   // traced replay when enabled
  bool setup_only = false;    // stand the stack up and tear it down unused
};

struct ReplayResult {
  // End to end.
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;   // process user+sys over the set-up
  uint64_t serve_ns = 0;      // first frame byte handed over -> last release
  uint64_t accepted = 0;      // reports accepted over the served rounds
  double cpu_s = 0.0;         // process user+sys over the serve
  double serve_rss_mb = 0.0;  // peak RSS over the serve minus RSS at start
  // Share of the machine's CPU time the hypervisor stole during the serve
  // (other tenants); wall-clock metrics are only as clean as this is low.
  double steal_share = 0.0;
  std::vector<double> release_ms;  // per served timestamp
  // Correctness.
  uint64_t attempted = 0;     // releases attempted
  uint64_t failed = 0;        // threw, deadline-flushed, differed, or the
                              // replay's counters missed the recording
  std::vector<std::string> errors;
  // Layer counters (every served/fed round of this replay).
  uint64_t rounds = 0;        // rounds the session announced
  ldpids::transport::FrameStats frames;
  ldpids::transport::RoundBufferStats buffer;
  ldpids::service::IngestStats ingest;
  ldpids::SketchMergeStats merges;
  uint64_t partial_bytes = 0;
  std::vector<double> socket_lag_us;  // per round: last byte -> TakeRound
  // Traced TCP replays: RoundBuffer delivery time inside the listener's
  // frame handler over the sampled frames (the decode itself runs inside
  // SocketListener).
  uint64_t handler_deliver_ns = 0;
  uint64_t handler_frames = 0;
  std::vector<double> scrape_us;
  uint64_t scrape_bytes = 0;
  uint64_t scrape_failures = 0;
};

// With options.setup_only, only setup_s and setup_cpu_s are filled in.
ReplayResult Replay(const Recording& recording, const ReplayOptions& options);

}  // namespace replaybench

#endif  // REPLAYBENCH_REPLAY_H_
