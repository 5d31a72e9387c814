// Descriptor tables for the data plane's plain counter structs
// (transport::FrameStats, transport::RoundBufferStats, ArenaDecodeStats,
// SketchMergeStats, service::IngestStats).
//
// Each struct keeps named uint64_t fields — plain increments on the hot
// path, cheap per-round snapshots — and declares one static table beside
// them, `kCounters`: a row per field with its ToString key, its metric
// name and an optional reason=/result= label. operator+=, ToString and
// the registry export (obs::StatsFeed in obs/metrics.h) are generated from
// that table, so adding a counter is one field plus one row.
//
// A struct may also declare `kCounterArray`, one indexed counter array
// whose slots share a metric and a label key (ArenaDecodeStats'
// per-WireError breakdown).
#ifndef LDPIDS_OBS_COUNTER_TABLE_H_
#define LDPIDS_OBS_COUNTER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ldpids::obs {

template <typename S>
struct CounterRow {
  uint64_t S::*field;
  const char* key;     // ToString key
  const char* metric;  // registry counter name
  // Optional label distinguishing rows that share one metric family,
  // e.g. {"reason", "bad_magic"}; null for an unlabeled counter.
  const char* label = nullptr;
  const char* value = nullptr;
};

// Slot i exports as `metric`{label=name(i)}; slots below `first` are not
// exported (and ToString omits the whole array).
template <typename S, std::size_t N>
struct CounterArrayRow {
  static constexpr std::size_t kSize = N;
  uint64_t (S::*field)[N];
  const char* metric;
  const char* label;
  const char* (*name)(std::size_t slot);
  std::size_t first;
};

// Calls fn(at, metric, label, value) once per counter of S in table order
// (array slots last), where at(s) is a reference to that counter in `s`
// and `metric` is null for a slot that is not exported.
template <typename S, typename Fn>
void ForEachCounter(Fn&& fn) {
  for (const CounterRow<S>& row : S::kCounters) {
    fn([&row](auto& s) -> auto& { return s.*row.field; }, row.metric,
       row.label, row.value);
  }
  if constexpr (requires { S::kCounterArray; }) {
    const auto& array = S::kCounterArray;
    for (std::size_t i = 0; i < array.kSize; ++i) {
      const bool exported = i >= array.first;
      fn([&array, i](auto& s) -> auto& { return (s.*array.field)[i]; },
         exported ? array.metric : nullptr, array.label,
         exported ? array.name(i) : nullptr);
    }
  }
}

template <typename S>
S& AddCounters(S& into, const S& other) {
  ForEachCounter<S>([&](auto at, auto&&...) { at(into) += at(other); });
  return into;
}

// Counter-wise `current - last`: the delta a publisher of cumulative stats
// adds to the registry since its previous publication.
template <typename S>
S CounterDelta(S current, const S& last) {
  ForEachCounter<S>([&](auto at, auto&&...) { at(current) -= at(last); });
  return current;
}

// "key=value key=value ..." over the scalar rows, in table order.
template <typename S>
std::string CountersToString(const S& s) {
  std::string out;
  for (const CounterRow<S>& row : S::kCounters) {
    if (!out.empty()) out += ' ';
    out += row.key;
    out += '=';
    out += std::to_string(s.*row.field);
  }
  return out;
}

}  // namespace ldpids::obs

#endif  // LDPIDS_OBS_COUNTER_TABLE_H_
