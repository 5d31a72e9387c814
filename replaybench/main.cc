// replay_bench: one run of the replay benchmark.
//
//   replay_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--trace-dir DIR]
//
// Records the workload's traffic from the reference session (untimed),
// then replays it through freshly stood-up collector stacks back to back
// until S seconds of replays have run. --trace 0 reports the end-to-end
// metrics, CPU per report and set-up CPU, over the calmer half of the
// untraced replays (those the hypervisor stole least from); --trace 1
// alternates untraced and traced replays, reports the wall-clock figures
// of the untraced ones and the per-layer metrics from the traced ones'
// spans, and writes their Chrome trace to DIR. The last stdout line is the
// result JSON; the exit code is non-zero when any request, release or
// counter missed the recording.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "obs/build_info.h"
#include "recording.h"
#include "replay.h"
#include "span_log.h"
#include "util/thread_pool.h"

namespace {

using namespace replaybench;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

int Usage(const char* error) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n"
               "workloads:",
               error);
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') end = nullptr;
    if ((flag == "--seed" || flag == "--seconds") &&
        end == nullptr) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.resize(std::strlen(model.c_str()));
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer numbers pooled over the traced replays.
struct LayerPool {
  uint64_t decode_ns = 0;
  uint64_t decode_frames = 0;
  uint64_t deliver_ns = 0;
  uint64_t deliver_frames = 0;
  uint64_t ingest_ns = 0;
  uint64_t ingest_packets = 0;
  std::vector<double> take_us;
  std::vector<double> ingest_us;
  std::vector<double> advance_self_us;
  std::vector<double> aggregator_us;
  std::vector<double> unattributed;
  std::vector<double> socket_lag_us;
  std::vector<double> scrape_us;
  uint64_t scrape_bytes = 0;
  uint64_t scrapes = 0;
  uint64_t scrape_failures = 0;
};

void PoolSpans(const std::vector<Span>& spans, const ReplayResult& r,
               LayerPool* pool) {
  const std::vector<int64_t> parents = ResolveParents(spans);
  const std::vector<uint64_t> self = SelfTimes(spans, parents);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double us = static_cast<double>(s.duration()) / 1e3;
    switch (s.key.kind) {
      case SpanKind::kDecode:
        pool->decode_ns += s.duration();
        pool->decode_frames += s.items;
        break;
      case SpanKind::kDeliver:
        pool->deliver_ns += s.duration();
        pool->deliver_frames += s.items;
        break;
      case SpanKind::kTakeRound: pool->take_us.push_back(us); break;
      case SpanKind::kIngestBatch:
        pool->ingest_us.push_back(us);
        pool->ingest_ns += s.duration();
        pool->ingest_packets += s.items;
        break;
      case SpanKind::kAdvance:
        pool->advance_self_us.push_back(static_cast<double>(self[i]) / 1e3);
        break;
      case SpanKind::kAggregatorRound: pool->aggregator_us.push_back(us); break;
      default: break;
    }
  }
  // The listener decodes inside SocketListener; what the benchmark sees on
  // TCP is the delivery inside its frame handler.
  pool->deliver_ns += r.handler_deliver_ns;
  pool->deliver_frames += r.handler_frames;
  pool->unattributed.push_back(UnattributedRatio(spans, parents));
  pool->socket_lag_us.insert(pool->socket_lag_us.end(),
                             r.socket_lag_us.begin(), r.socket_lag_us.end());
  pool->scrape_us.insert(pool->scrape_us.end(), r.scrape_us.begin(),
                         r.scrape_us.end());
  pool->scrape_bytes += r.scrape_bytes;
  pool->scrapes += r.scrape_us.size();
  pool->scrape_failures += r.scrape_failures;
}

// Wall-clock numbers are only as clean as the machine was: another
// tenant's load shows up as hypervisor steal, comes in spells of seconds to
// minutes, and slows every thread handoff (a replay with a fifth of the
// machine stolen can serve at a third of the speed). CPU time is charged
// without the stolen time, so CPU per report moves far less, and that is
// what the end-to-end metrics count. Each replay records the share of the
// machine's CPU time stolen during its serve, and the figures come from
// the calmer half of the replays: sorted by that share, the least-stolen
// half (rounded up), or more when the half has served fewer than
// kMinKeptReleases releases (three replays of 200, or one of 600). The
// choice looks only at the host, never at the program's own figures, so a
// slower program cannot hide in it. A run replays until --seconds are
// spent and the kept replays are at most half of them.
constexpr std::size_t kMinKeptReleases = 600;

// Set-up is short and sampled once per replay, so every measured untraced
// replay is preceded by this many stand-ups that tear the stack down
// unused; setup_s is the median over all of them. Being CPU time, it needs
// no steal filter.
constexpr int kSetupProbes = 3;

std::size_t KeptCount(std::size_t replays, std::size_t timestamps) {
  const std::size_t per = std::max<std::size_t>(timestamps, 1);
  const std::size_t floor = (kMinKeptReleases + per - 1) / per;
  return std::min(replays, std::max((replays + 1) / 2, floor));
}

std::vector<const ReplayResult*> Calmer(
    const std::vector<ReplayResult>& results, std::size_t timestamps) {
  std::vector<const ReplayResult*> sorted;
  for (const ReplayResult& r : results) sorted.push_back(&r);
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ReplayResult* a, const ReplayResult* b) {
                     return a->steal_share < b->steal_share;
                   });
  sorted.resize(KeptCount(sorted.size(), timestamps));
  return sorted;
}

bool EnoughReplays(std::size_t replays, std::size_t timestamps) {
  return 2 * KeptCount(replays, timestamps) <= replays;
}

double MaxSteal(const std::vector<const ReplayResult*>& rs) {
  double most = 0.0;
  for (const ReplayResult* r : rs) most = std::max(most, r->steal_share);
  return most;
}

double MinSteal(const std::vector<const ReplayResult*>& rs) {
  double least = rs.empty() ? 0.0 : 1.0;
  for (const ReplayResult* r : rs) least = std::min(least, r->steal_share);
  return least;
}

double PerItem(uint64_t total, uint64_t items) {
  return items == 0 ? 0.0 : static_cast<double>(total) / items;
}

std::string Stamp(const Args& args, std::size_t threads) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"nproc\":%zu,\"cpu\":\"%s\",\"simd\":\"%s\","
                "\"build\":\"%s\",\"sanitizer\":\"%s\",\"threads\":%zu,"
                "\"workload\":\"%s\",\"seed\":%llu",
                ldpids::HardwareThreads(), CpuModel().c_str(),
                ldpids::obs::SimdBackendName(), REPLAYBENCH_BUILD_TYPE,
                ldpids::obs::SanitizerName(), threads, args.workload.c_str(),
                static_cast<unsigned long long>(args.seed));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) return Usage("unknown workload");
  // The session's pool lanes: one per hardware thread.
  const std::size_t threads = ldpids::HardwareThreads();
  const std::string stamp = Stamp(args, threads);
  std::printf("# replaybench {%s}\n", stamp.c_str());
  std::fflush(stdout);
  if (std::strcmp(ldpids::obs::SanitizerName(), "none") != 0) {
    std::fprintf(stderr,
                 "replay_bench: refusing to record numbers from a "
                 "sanitizer build (%s)\n",
                 ldpids::obs::SanitizerName());
    return 3;
  }

  Recording rec;
  try {
    const uint64_t t0 = NowNs();
    rec = Record(*spec, args.seed, threads);
    std::size_t published = 0;
    for (const ldpids::StepResult& step : rec.releases) {
      published += step.published ? 1 : 0;
    }
    std::fprintf(stderr,
                 "# record pass: %zu rounds for %zu releases (%zu published), "
                 "%.1f MB traffic (ceiling %.0f MB), %.1f ns/report produced, "
                 "%.2f s\n",
                 rec.served_rounds, spec->timestamps, published,
                 static_cast<double>(rec.traffic_bytes) / (1 << 20),
                 static_cast<double>(kTrafficCeilingBytes) / (1 << 20),
                 PerItem(rec.produce_ns, rec.produced_reports),
                 static_cast<double>(NowNs() - t0) / 1e9);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay_bench: record pass failed: %s\n", e.what());
    return 1;
  }

  // Replays back to back until the measured time is spent. Replay 0 is a
  // warm-up (the thread pool and allocator arenas come up lazily in it):
  // it is checked but not measured. A traced run then alternates traced
  // and untraced replays (ABAB) so the tracing overhead is measured under
  // the same conditions.
  const std::size_t min_replays = args.trace ? 5 : 2;
  const uint64_t budget_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t start = NowNs();
  std::vector<ReplayResult> plain;
  std::vector<ReplayResult> traced;
  std::vector<Span> last_spans;
  LayerPool pool;
  // Set-up CPU of each measured untraced replay and of its probes.
  std::vector<double> setup_cpu_s;
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (std::size_t i = 0;; ++i) {
    const bool warmup = i == 0;
    const bool trace_this = args.trace && i % 2 == 1;
    SpanLog spans(trace_this);
    ReplayOptions options;
    options.threads = threads;
    options.spans = &spans;
    const bool probe = !args.trace && !warmup;
    for (int k = 0; probe && k < kSetupProbes; ++k) {
      ReplayOptions setup_only = options;
      setup_only.setup_only = true;
      setup_cpu_s.push_back(Replay(rec, setup_only).setup_cpu_s);
    }
    ReplayResult r = Replay(rec, options);
    if (probe) setup_cpu_s.push_back(r.setup_cpu_s);
    std::fprintf(stderr,
                 "# replay %zu%s: setup %.3f ms, serve %.1f ms, %.0f "
                 "reports/s, release p50 %.3f ms p95 %.3f ms, rss +%.2f MB, "
                 "cpu %.3f s, steal %.1f%%\n",
                 i, warmup ? " (warm-up)" : trace_this ? " (traced)" : "",
                 r.setup_s * 1e3, r.serve_ns / 1e6,
                 r.serve_ns == 0 ? 0.0 : r.accepted / (r.serve_ns / 1e9),
                 Percentile(r.release_ms, 0.5), Percentile(r.release_ms, 0.95),
                 r.serve_rss_mb, r.cpu_s, r.steal_share * 100);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      errors.push_back("replay " + std::to_string(i) + ": " + e);
    }
    if (warmup) {
      // Checked above, never measured.
    } else if (trace_this) {
      last_spans = spans.Take();
      PoolSpans(last_spans, r, &pool);
      traced.push_back(std::move(r));
    } else {
      plain.push_back(std::move(r));
    }
    if (i + 1 >= min_replays && NowNs() - start >= budget_ns &&
        (args.trace || EnoughReplays(plain.size(), spec->timestamps))) {
      break;
    }
  }

  auto rps = [](const std::vector<const ReplayResult*>& rs) {
    std::vector<double> v;
    for (const ReplayResult* r : rs) {
      if (r->serve_ns > 0) v.push_back(r->accepted / (r->serve_ns / 1e9));
    }
    return Median(v);
  };

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<const ReplayResult*> kept =
        Calmer(plain, spec->timestamps);
    std::vector<double> cpu;
    for (const ReplayResult* r : kept) {
      if (r->accepted > 0) cpu.push_back(r->cpu_s * 1e6 / r->accepted);
    }
    metrics = {
        {"cpu_us_per_report", Median(cpu), "us"},
        {"setup_s", Median(setup_cpu_s), "s"},
    };
    std::printf("# measured the calmer %zu of %zu untraced replays (steal "
                "%.2f%% to %.2f%% of the machine), %zu set-ups\n",
                kept.size(), plain.size(), MinSteal(kept) * 100,
                MaxSteal(kept) * 100, setup_cpu_s.size());
  } else {
    const ReplayResult& last = traced.back();
    uint64_t published = 0;
    uint64_t messages = 0;
    for (const ldpids::StepResult& step : rec.releases) {
      published += step.published ? 1 : 0;
      messages += step.messages;
    }
    uint64_t cohort = 0;
    for (std::size_t r = 0; r < rec.served_rounds; ++r) {
      cohort += rec.rounds[r].cohort_size;
    }
    const std::vector<const ReplayResult*> kept =
        Calmer(plain, spec->timestamps);
    const double untraced_rps = rps(kept);
    // Wall-clock figures from the same untraced replays.
    std::vector<double> releases;
    std::vector<double> setup_wall_s;
    for (const ReplayResult* r : kept) {
      releases.insert(releases.end(), r->release_ms.begin(),
                      r->release_ms.end());
      setup_wall_s.push_back(r->setup_s);
    }
    if (!PercentileSupported(releases.size(), 0.95)) {
      errors.push_back("release p95 has fewer than 10 samples beyond it (" +
                       std::to_string(releases.size()) + " samples)");
    }
    // Memory from the untraced replays: spans are heap the program does
    // not own.
    std::vector<double> rss;
    for (const ReplayResult* r : kept) rss.push_back(r->serve_rss_mb);
    metrics = {
        {"reports_per_s", untraced_rps, "reports/s"},
        {"release_p50_ms", Percentile(releases, 0.50), "ms"},
        {"release_p95_ms", Percentile(releases, 0.95), "ms"},
        {"setup_wall_s", Median(setup_wall_s), "s"},
        {"transport.decode_ns_per_frame",
         PerItem(pool.decode_ns, pool.decode_frames), "ns"},
        {"transport.deliver_ns_per_frame",
         PerItem(pool.deliver_ns, pool.deliver_frames), "ns"},
        {"transport.socket_lag_us_p50", Percentile(pool.socket_lag_us, 0.5),
         "us"},
        {"transport.take_wait_us_p50", Percentile(pool.take_us, 0.5), "us"},
        {"transport.frames", static_cast<double>(last.frames.frames),
         "count"},
        {"transport.frame_errors", static_cast<double>(last.frames.errors()),
         "count"},
        {"transport.skipped_bytes",
         static_cast<double>(last.frames.skipped_bytes), "bytes"},
        {"transport.duplicate_frames",
         static_cast<double>(last.buffer.duplicate_frames), "count"},
        {"transport.dropped_frames",
         static_cast<double>(last.buffer.dropped()), "count"},
        {"transport.deadline_flushes",
         static_cast<double>(last.buffer.deadline_flushes), "count"},
        {"serve_rss_mb", Median(rss), "MB"},
        {"transport.traffic_mb",
         static_cast<double>(rec.traffic_bytes) / (1 << 20), "MB"},
        {"service.ingest_ns_per_packet",
         PerItem(pool.ingest_ns, pool.ingest_packets), "ns"},
        {"service.ingest_us_p50", Percentile(pool.ingest_us, 0.5), "us"},
        {"service.accept_ratio",
         last.ingest.total() == 0
             ? 0.0
             : static_cast<double>(last.ingest.accepted) /
                   last.ingest.total(),
         "ratio"},
        {"service.rejected_malformed",
         static_cast<double>(last.ingest.malformed), "count"},
        {"service.rejected_wrong_timestamp",
         static_cast<double>(last.ingest.wrong_timestamp), "count"},
        {"service.rejected_duplicate",
         static_cast<double>(last.ingest.duplicate), "count"},
        {"service.advance_self_us_p50",
         Percentile(pool.advance_self_us, 0.5), "us"},
        {"service.rounds_per_release",
         static_cast<double>(rec.served_rounds) / spec->timestamps,
         "ratio"},
        {"service.aggregator_round_us_p50",
         Percentile(pool.aggregator_us, 0.5), "us"},
        {"service.partial_bytes_per_round",
         last.rounds == 0 ? 0.0
                          : static_cast<double>(last.partial_bytes) /
                                last.rounds,
         "bytes"},
        {"service.sketch_merges", static_cast<double>(last.merges.merged),
         "count"},
        {"service.sketch_merge_rejects",
         static_cast<double>(last.merges.rejected() + last.merges.missing),
         "count"},
        {"service.fleet_produce_ns_per_report",
         PerItem(rec.produce_ns, rec.produced_reports), "ns"},
        {"failed_release_ratio",
         attempted == 0 ? 1.0 : static_cast<double>(failed) / attempted,
         "ratio"},
        {"core.publications", static_cast<double>(published), "count"},
        {"core.messages", static_cast<double>(messages), "count"},
        {"core.cohort_mean",
         rec.served_rounds == 0
             ? 0.0
             : static_cast<double>(cohort) / rec.served_rounds,
         "reports"},
        {"obs.scrape_us_p50", Percentile(pool.scrape_us, 0.5), "us"},
        {"obs.scrape_bytes",
         pool.scrapes == 0 ? 0.0
                           : static_cast<double>(pool.scrape_bytes) /
                                 pool.scrapes,
         "bytes"},
        {"obs.scrape_failures", static_cast<double>(pool.scrape_failures),
         "count"},
        {"trace.overhead_ratio",
         untraced_rps > 0
             ? rps(Calmer(traced, spec->timestamps)) / untraced_rps
             : 0.0,
         "ratio"},
        {"trace.unattributed_ratio", Median(pool.unattributed), "ratio"},
        {"host.kept_replays", static_cast<double>(kept.size()), "count"},
        {"host.replays", static_cast<double>(plain.size()), "count"},
        {"host.max_kept_steal", MaxSteal(kept), "ratio"},
    };
    if (Median(pool.unattributed) > spec->max_unattributed) {
      errors.push_back("trace.unattributed_ratio " +
                       std::to_string(Median(pool.unattributed)) +
                       " exceeds the workload's tolerance " +
                       std::to_string(spec->max_unattributed));
    }
    // Chrome trace of the last traced replay.
    try {
      std::filesystem::create_directories(args.trace_dir);
      const std::string path = args.trace_dir + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) + ".json";
      std::ofstream out(path);
      out << RenderChromeTrace(last_spans, ResolveParents(last_spans), stamp);
      if (!out) throw std::runtime_error("write failed");
      std::fprintf(stderr, "# chrome trace: %s (%zu spans)\n", path.c_str(),
                   last_spans.size());
    } catch (const std::exception& e) {
      errors.push_back(std::string("cannot write the chrome trace: ") +
                       e.what());
    }
  }

  for (const std::string& e : errors) {
    std::fprintf(stderr, "replay_bench: FAILED %s\n", e.c_str());
  }
  const bool correct = errors.empty() && failed == 0 && attempted > 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(stderr, "  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
