#include "span_log.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

namespace replaybench {

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdvance: return "advance";
    case SpanKind::kAnnounce: return "announce";
    case SpanKind::kFeed: return "feed";
    case SpanKind::kDecode: return "decode";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kSocketSend: return "socket_send";
    case SpanKind::kTakeRound: return "take_round";
    case SpanKind::kIngestBatch: return "ingest_batch";
    case SpanKind::kAggregatorRound: return "aggregator_round";
    case SpanKind::kPartialSend: return "partial_send";
    case SpanKind::kScrape: return "scrape";
  }
  return "?";
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint32_t SpanThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

void SpanLog::Add(const Span& span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanKey key, uint64_t trace_id)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.key = key;
  span_.trace_id = trace_id;
  span_.thread = SpanThreadId();
  span_.start_ns = NowNs();
}

ScopedSpan::ScopedSpan(SpanLog* log, SpanKey key, uint64_t trace_id,
                       SpanKey parent)
    : ScopedSpan(log, key, trace_id) {
  span_.has_parent = true;
  span_.parent = parent;
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNs();
  log_->Add(span_);
}

uint64_t CoveredNs(uint64_t start, uint64_t end,
                   std::vector<Interval> intervals) {
  if (end <= start) return 0;
  // Clip to [start, end), drop empties, then sweep the sorted union.
  std::vector<Interval> clipped;
  clipped.reserve(intervals.size());
  for (const Interval& iv : intervals) {
    const uint64_t s = std::max(iv.start, start);
    const uint64_t e = std::min(iv.end, end);
    if (s < e) clipped.push_back({s, e});
  }
  std::sort(clipped.begin(), clipped.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  uint64_t covered = 0;
  uint64_t run_start = 0;
  uint64_t run_end = 0;
  bool open = false;
  for (const Interval& iv : clipped) {
    if (open && iv.start <= run_end) {
      run_end = std::max(run_end, iv.end);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = iv.start;
    run_end = iv.end;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

namespace {

using KeyTuple = std::tuple<uint8_t, uint64_t, uint32_t>;

KeyTuple Tuple(const SpanKey& key) {
  return {static_cast<uint8_t>(key.kind), key.index, key.lane};
}

}  // namespace

std::vector<int64_t> ResolveParents(const std::vector<Span>& spans) {
  // A key names the first span recorded under it (chunk-level spans share
  // their round's key; they are leaves and never parents).
  std::map<KeyTuple, int64_t> by_key;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_key.emplace(Tuple(spans[i].key), static_cast<int64_t>(i));
  }
  std::vector<int64_t> parents(spans.size(), -1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].has_parent) continue;
    const auto it = by_key.find(Tuple(spans[i].parent));
    if (it != by_key.end() && it->second != static_cast<int64_t>(i)) {
      parents[i] = it->second;
    }
  }
  return parents;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans,
                                const std::vector<int64_t>& parents) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parents[i] >= 0) {
      children[static_cast<std::size_t>(parents[i])].push_back(
          {spans[i].start_ns, spans[i].end_ns});
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration() -
              CoveredNs(spans[i].start_ns, spans[i].end_ns,
                        std::move(children[i]));
  }
  return self;
}

double UnattributedRatio(const std::vector<Span>& spans,
                         const std::vector<int64_t>& parents) {
  // Each span covers the advance its parent chain ends at, if any: the
  // advance that announced its round or whose round it ingests. Spans of
  // other advances (the next round's pipelined ingest) and unparented ones
  // (scrapes) cover nothing, even while they overlap.
  std::vector<std::vector<Interval>> descendants(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    int64_t root = parents[i];
    while (root >= 0 && parents[static_cast<std::size_t>(root)] >= 0) {
      root = parents[static_cast<std::size_t>(root)];
    }
    if (root >= 0 &&
        spans[static_cast<std::size_t>(root)].key.kind == SpanKind::kAdvance) {
      descendants[static_cast<std::size_t>(root)].push_back(
          {spans[i].start_ns, spans[i].end_ns});
    }
  }
  uint64_t wall = 0;
  uint64_t uncovered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.key.kind != SpanKind::kAdvance) continue;
    wall += s.duration();
    uncovered += s.duration() - CoveredNs(s.start_ns, s.end_ns,
                                          std::move(descendants[i]));
  }
  return wall == 0 ? 0.0 : static_cast<double>(uncovered) / wall;
}

namespace {

std::size_t NearestRank(std::size_t n, double q) {
  // ceil(q * n) in [1, n]; the epsilon keeps q * n = 190.0000001 from
  // rounding a whole rank up.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool PercentileSupported(std::size_t n, double q, std::size_t min_beyond) {
  return SamplesBeyond(n, q) >= min_beyond;
}

std::string RenderChromeTrace(const std::vector<Span>& spans,
                              const std::vector<int64_t>& parents,
                              const std::string& metadata) {
  uint64_t base = ~uint64_t{0};
  for (const Span& s : spans) base = std::min(base, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[384];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s\n{\"name\":\"%s\",\"cat\":\"replaybench\",\"ph\":\"X\","
        "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
        "\"span_id\":%zu,\"parent\":%lld,\"trace_id\":%llu,"
        "\"index\":%llu,\"lane\":%u,\"items\":%llu}}",
        i == 0 ? "" : ",", SpanName(s.key.kind), s.thread,
        static_cast<double>(s.start_ns - base) / 1e3,
        static_cast<double>(s.duration()) / 1e3, i,
        static_cast<long long>(parents[i]),
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.key.index), s.key.lane,
        static_cast<unsigned long long>(s.items));
    out += buf;
  }
  out += "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{";
  out += metadata;
  out += "}}\n";
  return out;
}

}  // namespace replaybench
