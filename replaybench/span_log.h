// In-memory span recording for the replay benchmark's traced runs, and the
// arithmetic the per-layer metrics are computed with.
//
// The benchmark records one span around each call it makes into a layer of
// the program (session Advance, RoundBuffer::TakeRound, ReportRouter::
// IngestBatch, FrameDecoder, ...). A span is identified by (kind, index,
// lane) — index is the round index or the timestamp, lane the connection
// or aggregator node — and names its parent by the same triple, so spans
// recorded on different threads (a pipelined ingest worker, a feeder, an
// aggregator node) link up after the run without sharing state while it
// runs. Spans of one mechanism timestamp share that timestamp as their
// trace id.
#ifndef REPLAYBENCH_SPAN_LOG_H_
#define REPLAYBENCH_SPAN_LOG_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace replaybench {

enum class SpanKind : uint8_t {
  kAdvance = 0,     // MechanismSession / RootSession::Advance
  kAnnounce,        // the session's announce callback (closed-loop send)
  kFeed,            // one round's bytes through FrameDecoder into a buffer
  kDecode,          // FrameDecoder::Append + Next over one chunk
  kDeliver,         // RoundBuffer::Deliver over one chunk's frames
  kSocketSend,      // one round's stripe written to a loopback socket
  kTakeRound,       // RoundBuffer::TakeRound (time blocked for the round)
  kIngestBatch,     // ReportRouter::IngestBatch
  kAggregatorRound, // AggregatorNode::RunRoundUpstream
  kPartialSend,     // partial-sketch frame encode + root-side decode/deliver
  kScrape,          // one GET /metrics against the ScrapeEndpoint
};

const char* SpanName(SpanKind kind);

// Stable identity of a span: the same triple names a parent.
struct SpanKey {
  SpanKind kind = SpanKind::kAdvance;
  uint64_t index = 0;  // round index or timestamp
  uint32_t lane = 0;   // connection / aggregator node / chunk
  bool operator==(const SpanKey& other) const {
    return kind == other.kind && index == other.index && lane == other.lane;
  }
};

struct Span {
  SpanKey key;
  bool has_parent = false;
  SpanKey parent;
  uint64_t trace_id = 0;  // mechanism timestamp this span serves
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t thread = 0;    // small per-thread id (SpanThreadId)
  uint64_t items = 0;     // frames / packets / bytes handled, per kind
  uint64_t duration() const { return end_ns - start_ns; }
};

// Steady-clock nanoseconds.
uint64_t NowNs();

// Small dense id of the calling thread (0, 1, 2, ... in first-use order).
uint32_t SpanThreadId();

// Thread-safe span sink. A disabled log records nothing, and the scoped
// helper below reads no clock for it, so untraced runs pay one branch per
// call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Add(const Span& span);
  // Moves the recorded spans out (call once every recording thread is
  // joined).
  std::vector<Span> Take();

 private:
  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Records [construction, destruction) as one span when `log` is enabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKey key, uint64_t trace_id);
  ScopedSpan(SpanLog* log, SpanKey key, uint64_t trace_id, SpanKey parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t items) { span_.items = items; }

 private:
  SpanLog* log_;
  Span span_;
};

// --- analysis ---------------------------------------------------------

struct Interval {
  uint64_t start = 0;
  uint64_t end = 0;
};

// Length of [start, end) covered by the union of `intervals` (which may
// overlap each other and extend beyond [start, end)).
uint64_t CoveredNs(uint64_t start, uint64_t end,
                   std::vector<Interval> intervals);

// parents[i] = index of span i's parent in `spans`, or -1 when it has none
// or the parent was not recorded.
std::vector<int64_t> ResolveParents(const std::vector<Span>& spans);

// Self time of every span: its duration minus the part of its interval
// covered by its direct children's intervals (children recorded on other
// threads and overlapping each other — pipelined rounds — included).
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans,
                                const std::vector<int64_t>& parents);

// Share of the total kAdvance wall time that no descendant of that
// advance covers (any thread; found through `parents`, as ResolveParents
// gives them). Spans descending from another advance, or from none, do
// not count even where they overlap.
double UnattributedRatio(const std::vector<Span>& spans,
                         const std::vector<int64_t>& parents);

// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

// Samples strictly beyond the nearest-rank q-percentile of n samples.
std::size_t SamplesBeyond(std::size_t n, double q);

// True when the q-percentile of n samples has at least `min_beyond`
// samples beyond it — the rule for the highest percentile a run may
// report.
bool PercentileSupported(std::size_t n, double q,
                         std::size_t min_beyond = 10);

// Chrome trace-event JSON ("X" events, microseconds) of `spans`, with
// `metadata` (already-rendered JSON object members) under "metadata".
std::string RenderChromeTrace(const std::vector<Span>& spans,
                              const std::vector<int64_t>& parents,
                              const std::string& metadata);

}  // namespace replaybench

#endif  // REPLAYBENCH_SPAN_LOG_H_
