// Low-overhead metrics registry for the serving data plane.
//
// The repo accumulated four ad-hoc stats structs (transport::FrameStats,
// transport::RoundBufferStats, ArenaDecodeStats, service::IngestStats)
// with no timing data and no machine-readable export. This registry is the
// canonical sink they all feed: named, labeled counters, gauges and
// log2-bucketed latency histograms, built so the hot path pays one relaxed
// atomic RMW per increment and readers take a consistent snapshot without
// ever blocking a writer.
//
// Design rules, in priority order:
//   * Releases stay bit-identical with metrics enabled. Nothing in here
//     draws randomness, reorders work, or feeds back into the data plane —
//     instrumentation is strictly write-only from the serving layer's
//     perspective.
//   * Hot-path increments are lock-free: Counter::Add / Gauge::Set /
//     Histogram::Observe are relaxed atomics on registry-owned storage.
//     Handles returned by Get* are stable for the registry's lifetime, so
//     components look their metrics up once and cache the pointer.
//   * Registration (Get* on a new name+labels) takes a mutex; it happens
//     once per metric, off the steady-state path.
//   * Snapshot() copies every value under the registration mutex, so a
//     scrape sees a stable metric set; values written concurrently with
//     the scrape land in the next one.
//
// Exporters (Prometheus text exposition, structured JSON) live in
// obs/export.h; per-pipeline-stage timing in obs/stage_trace.h. The data
// plane's counter structs publish here through StatsFeed (below), driven
// by their descriptor tables (obs/counter_table.h).
#ifndef LDPIDS_OBS_METRICS_H_
#define LDPIDS_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/counter_table.h"

namespace ldpids::obs {

// Label set of one metric instance, e.g. {{"session","lba0"}}. Keys are
// sorted when the metric registers, so {{a,1},{b,2}} and {{b,2},{a,1}}
// name the same instance.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Canonical `key="value",key2="value2"` rendering (sorted by key); the
// exposition format and the registry's instance key both use it.
std::string RenderLabels(const Labels& labels);

// Monotonic event count. Add is wait-free; value() is a relaxed read (use
// MetricsRegistry::Snapshot for a consistent multi-metric view).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time level (pending rounds, live sessions). Set/Add wait-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Log2-bucketed histogram for durations in nanoseconds. Bucket k counts
// observations v with bit_width(v) == k, i.e. v in [2^(k-1), 2^k); bucket
// 0 counts v == 0 and the last bucket absorbs everything at or above
// 2^(kNumBuckets-2) ns (~2.3 min). One Observe is one relaxed fetch_add on
// the bucket plus count/sum — no allocation, no lock, no float math.
class Histogram {
 public:
  // 0, then [2^0,2^1), ..., top bucket open-ended: 43 buckets spans 1 ns
  // to ~2.2 minutes per observation, which covers every pipeline stage.
  static constexpr std::size_t kNumBuckets = 43;

  static std::size_t BucketIndex(uint64_t v) {
    std::size_t k = 0;
    while (v != 0) {  // bit_width
      ++k;
      v >>= 1;
    }
    return k < kNumBuckets ? k : kNumBuckets - 1;
  }
  // Exclusive upper bound of bucket k (2^k ns); ~0 for the zero bucket.
  static uint64_t BucketUpperBound(std::size_t k) {
    return k == 0 ? 0 : uint64_t{1} << k;
  }

  void Observe(uint64_t v) {
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(std::size_t k) const {
    return buckets_[k].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// One metric's values at snapshot time.
struct CounterSample {
  std::string name;
  Labels labels;
  uint64_t value = 0;
};
struct GaugeSample {
  std::string name;
  Labels labels;
  int64_t value = 0;
};
struct HistogramSample {
  std::string name;
  Labels labels;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t buckets[Histogram::kNumBuckets] = {};

  // Quantile estimate (q in [0,1]) by linear interpolation inside the
  // owning log2 bucket; 0 when the histogram is empty.
  uint64_t Quantile(double q) const;
};

// Consistent copy of a registry, ordered by (name, rendered labels).
struct MetricsSnapshot {
  // Scrape ordering metadata, stamped by MetricsRegistry::Snapshot():
  // wall-clock milliseconds at snapshot time and a per-registry monotonic
  // sequence number (first snapshot = 1). A series of scraped snapshots
  // can be ordered and rated offline even when the scraper's own clock or
  // delivery order is unreliable. Both render at the top level of
  // RenderJson.
  uint64_t ts_unix_ms = 0;
  uint64_t seq = 0;

  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  const CounterSample* FindCounter(const std::string& name,
                                   const Labels& labels = {}) const;
  const HistogramSample* FindHistogram(const std::string& name,
                                       const Labels& labels = {}) const;
};

// Owns every metric instance. Thread-safe; metrics are never removed, so
// returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates the instance for (name, labels). Throws
  // std::logic_error when the name already exists with a different type
  // (one name must be one metric family).
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {});

  // Consistent point-in-time copy of every metric.
  MetricsSnapshot Snapshot() const;

  std::size_t size() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(const std::string& name, const Labels& labels, Kind kind);

  mutable std::mutex mu_;
  // Keyed by name + "\x1f" + rendered labels: deterministic iteration
  // order, so snapshots and expositions are stable across runs.
  std::map<std::string, Entry> entries_;
  // Snapshot sequence (see MetricsSnapshot::seq).
  mutable std::atomic<uint64_t> snapshot_seq_{0};
};

// Publishes one component's counter struct S (obs/counter_table.h) into
// registry counters named by S's descriptor table. Every counter is
// registered at construction, so publishing on a hot path never touches
// the registry mutex. Two publication styles:
//   Add(delta)        — counters advance by a fresh delta (e.g. one
//                       round's IngestStats).
//   Publish(current)  — the caller hands the component's cumulative
//                       struct; the feed adds the difference from the last
//                       one published, so republishing a snapshot is
//                       harmless.
// Give each component its own feed (feeds may share labels — counters are
// additive).
template <typename S>
class StatsFeed {
 public:
  explicit StatsFeed(MetricsRegistry* registry, const Labels& labels = {}) {
    ForEachCounter<S>([&](auto, const char* metric, const char* label,
                          const char* value) {
      Counter* counter = nullptr;
      if (metric != nullptr) {
        Labels row_labels = labels;
        if (label != nullptr) row_labels.emplace_back(label, value);
        counter = &registry->GetCounter(metric, row_labels);
      }
      counters_.push_back(counter);
    });
  }

  void Add(const S& delta) {
    std::size_t i = 0;
    ForEachCounter<S>([&](auto at, auto&&...) {
      if (Counter* counter = counters_[i++]) counter->Add(at(delta));
    });
  }

  void Publish(const S& current) {
    Add(CounterDelta(current, last_));
    last_ = current;
  }

 private:
  std::vector<Counter*> counters_;  // table order; null = not exported
  S last_{};
};

// Steady-clock nanoseconds, the time base for every stage histogram.
uint64_t NowNs();

// Wall-clock milliseconds since the Unix epoch (snapshot timestamps).
uint64_t UnixMillis();

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_METRICS_H_
