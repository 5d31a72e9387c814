#include "replay.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "fo/frequency_oracle.h"
#include "obs/build_info.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scrape_endpoint.h"
#include "service/aggregator.h"
#include "service/session.h"
#include "transport/socket.h"

namespace replaybench {

using ldpids::PayloadRef;
using ldpids::StepResult;
using ldpids::service::RoundRequest;
using ldpids::service::ReportRouter;
using ldpids::transport::Frame;
using ldpids::transport::FrameDecoder;
using ldpids::transport::RoundBuffer;

namespace {

// Bit-wise release equality (release bytes, published flag, messages).
bool SameStep(const StepResult& a, const StepResult& b) {
  return a.published == b.published && a.messages == b.messages &&
         a.release.size() == b.release.size() &&
         std::memcmp(a.release.data(), b.release.data(),
                     a.release.size() * sizeof(double)) == 0;
}

// A round that never completes is a failure, not a wait: flush it well
// before the run's time limit.
constexpr std::chrono::milliseconds kRoundDeadline{5000};
// Bytes handed to the decoder per Append, like one socket read.
constexpr std::size_t kFeedChunk = 64 * 1024;
constexpr uint64_t kUnset = ~uint64_t{0};
// Cadence of the live /metrics scrapes on the observability workload.
constexpr std::chrono::milliseconds kScrapePeriod{20};

// One thread draining a FIFO of round indexes. Exceptions are kept as
// errors for the replay's verdict, never lost.
class Worker {
 public:
  explicit Worker(std::function<void(uint64_t)> fn)
      : fn_(std::move(fn)), thread_([this] { Loop(); }) {}
  ~Worker() { Stop(); }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  void Post(uint64_t item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(item);
    }
    cv_.notify_one();
  }

  // Runs every posted item, then joins.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  std::vector<std::string> errors() const {
    std::lock_guard<std::mutex> lock(mu_);
    return errors_;
  }

 private:
  void Loop() {
    for (;;) {
      uint64_t item = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = queue_.front();
        queue_.pop_front();
      }
      try {
        fn_(item);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu_);
        errors_.push_back(e.what());
      }
    }
  }

  std::function<void(uint64_t)> fn_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<uint64_t> queue_;
  bool stop_ = false;
  std::vector<std::string> errors_;
  std::thread thread_;  // last: starts once the members above exist
};

void AtomicMin(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load();
  while (v < cur && !a.compare_exchange_weak(cur, v)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load();
  while ((cur == kUnset || v > cur) && !a.compare_exchange_weak(cur, v)) {
  }
}

// Per-round wall marks shared between the session, feeders and senders.
struct RoundClock {
  explicit RoundClock(std::size_t n)
      : first_byte(new std::atomic<uint64_t>[n]),
        last_byte(new std::atomic<uint64_t>[n]),
        take_end(new std::atomic<uint64_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) {
      first_byte[i] = kUnset;
      last_byte[i] = kUnset;
      take_end[i] = kUnset;
    }
  }
  std::unique_ptr<std::atomic<uint64_t>[]> first_byte;
  std::unique_ptr<std::atomic<uint64_t>[]> last_byte;
  std::unique_ptr<std::atomic<uint64_t>[]> take_end;
};

// RoundBuffer delivery time inside the listener's frame handler, timed on
// one frame in kSampleEvery per reader thread (two clock reads per 52-byte
// frame would double the traced cost of the hottest loop; delivery cost
// is uniform across frames, so the sampled mean stands for all). Slots
// are padded so the readers never share a cache line.
class HandlerTally {
 public:
  static constexpr uint32_t kSampleEvery = 16;

  static bool Sample() {
    thread_local uint32_t n = 0;
    return n++ % kSampleEvery == 0;
  }

  void Add(uint64_t ns) {
    Slot& slot = slots_[SpanThreadId() % kSlots];
    slot.ns.fetch_add(ns, std::memory_order_relaxed);
    slot.frames.fetch_add(1, std::memory_order_relaxed);
  }
  void Sum(uint64_t* ns, uint64_t* frames) const {
    *ns = 0;
    *frames = 0;
    for (const Slot& slot : slots_) {
      *ns += slot.ns.load();
      *frames += slot.frames.load();
    }
  }

 private:
  static constexpr std::size_t kSlots = 16;
  struct alignas(64) Slot {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> frames{0};
  };
  Slot slots_[kSlots];
};

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

// Machine-wide CPU ticks: {stolen by the hypervisor, all}. Zeros when
// /proc/stat is unreadable.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t all = 0;
  for (unsigned long long x : v) all += x;
  return {v[7], all};
}

// kB value of one /proc/self/status field, -1 when unreadable.
long StatusKb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long value = -1;
  const std::size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      value = std::strtol(line + len, nullptr, 10);
    }
  }
  std::fclose(f);
  return value;
}

// Returns freed heap to the kernel and restarts the peak-RSS watermark so
// VmHWM afterwards is the peak of what follows.
void ResetPeakRss() {
  malloc_trim(0);
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd >= 0) {
    if (write(fd, "5", 1) != 1) {
      std::fprintf(stderr, "replaybench: cannot reset peak RSS\n");
    }
    close(fd);
  }
}

int ConnectLoopback(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error("connect() to the collector failed");
  }
  return fd;
}

void SendAll(int fd, const uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send() to the collector failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

// One GET /metrics over a fresh connection; returns the response bytes,
// or 0 when the scrape failed (no 200).
std::size_t ScrapeOnce(uint16_t port) {
  int fd = -1;
  try {
    fd = ConnectLoopback(port);
  } catch (const std::exception&) {
    return 0;
  }
  static const char kRequest[] =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::string response;
  try {
    SendAll(fd, reinterpret_cast<const uint8_t*>(kRequest),
            sizeof(kRequest) - 1);
    char buf[16384];
    for (;;) {
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  } catch (const std::exception&) {
    response.clear();
  }
  close(fd);
  return response.rfind("HTTP/1.1 200", 0) == 0 ? response.size() : 0;
}

// One round's lane bytes through a decoder into a buffer, in socket-read
// sized chunks. `last_byte` (optional) gets the time the last chunk was
// handed over.
void FeedBytes(FrameDecoder& decoder, const std::vector<uint8_t>& bytes,
               RoundBuffer& buffer, SpanLog* spans, uint64_t round,
               uint64_t ts, uint32_t lane, uint64_t* last_byte) {
  const SpanKey parent{SpanKind::kFeed, round, lane};
  std::vector<Frame> frames;
  for (std::size_t off = 0; off < bytes.size(); off += kFeedChunk) {
    const std::size_t n = std::min(kFeedChunk, bytes.size() - off);
    {
      ScopedSpan span(spans, {SpanKind::kDecode, round, lane}, ts, parent);
      decoder.Append(bytes.data() + off, n);
      if (off + n == bytes.size() && last_byte != nullptr) {
        *last_byte = NowNs();
      }
      Frame frame;
      while (decoder.Next(&frame)) frames.push_back(std::move(frame));
      span.set_items(frames.size());
    }
    ScopedSpan span(spans, {SpanKind::kDeliver, round, lane}, ts, parent);
    span.set_items(frames.size());
    for (Frame& frame : frames) buffer.Deliver(std::move(frame));
    frames.clear();
  }
}

// Timestamp -> index of its first round, from the recording.
std::vector<std::size_t> FirstRoundOf(const Recording& rec) {
  std::vector<std::size_t> first(rec.spec->timestamps, kUnset);
  for (std::size_t r = 0; r < rec.rounds.size(); ++r) {
    const uint64_t t = rec.rounds[r].request.timestamp;
    if (t < first.size() && first[t] == kUnset) first[t] = r;
  }
  return first;
}

// The timed serve: Advance() back to back over the served timestamps,
// with CPU, RSS and per-release marks. `advance` runs one step.
template <typename AdvanceFn>
void Serve(const Recording& rec, SpanLog* spans, std::size_t* current_t,
           const RoundClock& clock, AdvanceFn advance,
           std::vector<uint8_t>* release_ok, ReplayResult* res) {
  const std::size_t steps = rec.spec->timestamps;
  std::vector<uint64_t> release_ns(steps, kUnset);
  release_ok->assign(steps, 0);
  ResetPeakRss();
  const long rss_start_kb = StatusKb("VmRSS:");
  const auto steal0 = StealTicks();
  const double cpu0 = CpuSeconds();
  std::size_t served = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    *current_t = t;
    StepResult step;
    try {
      ScopedSpan span(spans, {SpanKind::kAdvance, t, 0}, t);
      step = advance();
    } catch (const std::exception& e) {
      res->errors.push_back("Advance(" + std::to_string(t) +
                            ") threw: " + e.what());
      break;
    }
    release_ns[t] = NowNs();
    (*release_ok)[t] = SameStep(step, rec.releases[t]) ? 1 : 0;
    served = t + 1;
  }
  res->cpu_s = CpuSeconds() - cpu0;
  const auto steal1 = StealTicks();
  if (steal1.second > steal0.second) {
    res->steal_share = static_cast<double>(steal1.first - steal0.first) /
                       static_cast<double>(steal1.second - steal0.second);
  }
  res->serve_rss_mb =
      static_cast<double>(StatusKb("VmHWM:") - rss_start_kb) / 1024.0;
  if (served == 0) return;
  const std::vector<std::size_t> first_round = FirstRoundOf(rec);
  const uint64_t start = clock.first_byte[0].load();
  if (start != kUnset && release_ns[served - 1] > start) {
    res->serve_ns = release_ns[served - 1] - start;
  }
  for (std::size_t t = 0; t < served; ++t) {
    if (first_round[t] == kUnset) continue;
    const uint64_t first = clock.first_byte[first_round[t]].load();
    if (first == kUnset || release_ns[t] < first) continue;
    res->release_ms.push_back(static_cast<double>(release_ns[t] - first) /
                              1e6);
  }
}

NetworkCounts ExpectedNetwork(const Recording& rec, uint64_t fed_rounds) {
  NetworkCounts sum;
  for (uint64_t r = 0; r < fed_rounds && r < rec.rounds.size(); ++r) {
    sum += rec.rounds[r].network;
  }
  return sum;
}

template <typename T>
void ExpectEq(const char* what, T got, T want, ReplayResult* res) {
  if (got != want) {
    res->errors.push_back(std::string(what) + ": got " +
                          std::to_string(got) + ", want " +
                          std::to_string(want));
  }
}

// Release verdicts: a timestamp fails when its release differed or was
// never produced, when one of its rounds was announced with a request the
// recording does not have or was deadline-flushed; any replay-level error
// (a counter that missed the recording, a worker failure) fails them all.
void Verdict(const Recording& rec, const std::vector<uint8_t>& release_ok,
             const std::vector<uint8_t>& bad_round, ReplayResult* res) {
  const std::size_t steps = rec.spec->timestamps;
  std::vector<uint8_t> ok = release_ok;
  for (std::size_t r = 0; r < bad_round.size(); ++r) {
    const uint64_t t = rec.rounds[r].request.timestamp;
    if (bad_round[r] != 0 && t < steps) ok[t] = 0;
  }
  res->attempted = steps;
  res->failed = 0;
  for (std::size_t t = 0; t < steps; ++t) {
    if (ok[t] == 0) ++res->failed;
  }
  if (!res->errors.empty()) res->failed = steps;
}

ldpids::service::SessionOptions SessionOptionsFor(std::size_t threads) {
  ldpids::service::SessionOptions options;
  options.num_shards = 0;
  options.num_threads = threads;
  options.pipeline_depth = kPipelineDepth;
  return options;
}

// Live /metrics scrapes at a fixed cadence while the serve runs.
class Scraper {
 public:
  Scraper(uint16_t port, SpanLog* spans)
      : thread_([this, port, spans](std::stop_token stop) {
          uint64_t n = 0;
          while (!stop.stop_requested()) {
            std::size_t bytes = 0;
            const uint64_t t0 = NowNs();
            {
              ScopedSpan span(spans, {SpanKind::kScrape, n, 0}, n);
              bytes = ScrapeOnce(port);
              span.set_items(bytes);
            }
            const uint64_t t1 = NowNs();
            {
              std::lock_guard<std::mutex> lock(mu_);
              if (bytes == 0) {
                ++failures_;
              } else {
                us_.push_back(static_cast<double>(t1 - t0) / 1e3);
                bytes_ += bytes;
              }
            }
            ++n;
            std::this_thread::sleep_for(kScrapePeriod);
          }
        }) {}

  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  // Stops and joins, then moves the samples into `res`.
  void Finish(ReplayResult* res) {
    thread_.request_stop();
    if (thread_.joinable()) thread_.join();
    std::lock_guard<std::mutex> lock(mu_);
    res->scrape_us = std::move(us_);
    res->scrape_bytes = bytes_;
    res->scrape_failures = failures_;
  }

 private:
  std::mutex mu_;
  std::vector<double> us_;
  uint64_t bytes_ = 0;
  uint64_t failures_ = 0;
  std::jthread thread_;  // last
};

ReplayResult ReplayFlat(const Recording& rec, const ReplayOptions& opt) {
  const WorkloadSpec& spec = *rec.spec;
  SpanLog* spans = opt.spans;
  const bool traced = spans != nullptr && spans->enabled();
  const std::size_t nrounds = rec.rounds.size();
  ReplayResult res;
  RoundClock clock(nrounds);
  std::vector<uint8_t> bad_round(nrounds, 0);
  std::size_t current_t = 0;  // session thread only
  HandlerTally tally;

  const uint64_t setup0 = NowNs();
  const double setup_cpu0 = CpuSeconds();
  auto mechanism = ldpids::CreateMechanism(spec.mechanism, ConfigFor(spec),
                                           spec.users);
  ldpids::transport::RoundBufferOptions buffer_options;
  buffer_options.round_deadline = kRoundDeadline;
  RoundBuffer buffer(buffer_options);
  std::unique_ptr<ldpids::obs::MetricsRegistry> registry;
  std::unique_ptr<ldpids::obs::FlightRecorder> recorder;
  if (spec.observability) {
    registry = std::make_unique<ldpids::obs::MetricsRegistry>();
    recorder = std::make_unique<ldpids::obs::FlightRecorder>();
    ldpids::obs::TouchProcessMetrics(registry.get());
    buffer.AttachMetrics(registry.get(), "replay");
  }
  ldpids::transport::FrameDemux demux;
  std::unique_ptr<ldpids::transport::SocketListener> listener;
  std::vector<int> fds;
  FrameDecoder decoder;  // the in-memory feeder's (feeder thread only)
  std::vector<std::unique_ptr<Worker>> feeders;
  if (spec.feed == FeedMode::kTcp) {
    demux.Register(kSessionId, &buffer);
    listener = std::make_unique<ldpids::transport::SocketListener>(
        0, [&demux, &tally, traced](Frame&& frame) {
          if (!traced || !HandlerTally::Sample()) {
            demux.Deliver(std::move(frame));
            return;
          }
          const uint64_t t0 = NowNs();
          demux.Deliver(std::move(frame));
          tally.Add(NowNs() - t0);
        });
    if (registry) listener->AttachMetrics(registry.get(), "replay");
    for (std::size_t c = 0; c < spec.lanes; ++c) {
      fds.push_back(ConnectLoopback(listener->port()));
      feeders.push_back(std::make_unique<Worker>([&, c](uint64_t r) {
        const std::vector<uint8_t>& bytes = rec.rounds[r].lanes[c];
        ScopedSpan span(spans, {SpanKind::kSocketSend, r,
                                static_cast<uint32_t>(c)},
                        rec.rounds[r].request.timestamp,
                        {SpanKind::kAnnounce, r, 0});
        span.set_items(bytes.size());
        AtomicMin(clock.first_byte[r], NowNs());
        SendAll(fds[c], bytes.data(), bytes.size());
        AtomicMax(clock.last_byte[r], NowNs());
      }));
    }
  } else {
    feeders.push_back(std::make_unique<Worker>([&](uint64_t r) {
      const uint64_t ts = rec.rounds[r].request.timestamp;
      ScopedSpan span(spans, {SpanKind::kFeed, r, 0}, ts,
                      {SpanKind::kAnnounce, r, 0});
      span.set_items(rec.rounds[r].lanes[0].size());
      clock.first_byte[r] = NowNs();
      uint64_t last = kUnset;
      FeedBytes(decoder, rec.rounds[r].lanes[0], buffer, spans, r, ts, 0,
                &last);
      clock.last_byte[r] = last;
    }));
  }
  std::unique_ptr<ldpids::obs::ScrapeEndpoint> endpoint;
  if (spec.observability) {
    endpoint = std::make_unique<ldpids::obs::ScrapeEndpoint>(registry.get(),
                                                             recorder.get());
  }

  ldpids::service::SessionOptions options =
      SessionOptionsFor(opt.threads);
  if (spec.observability) {
    options.metrics = registry.get();
    options.metrics_label = "replay";
    options.recorder = recorder.get();
  }
  ldpids::service::SplitRoundTransport transport;
  transport.announce = [&](const RoundRequest& request) {
    const uint64_t r = request.round_index;
    ScopedSpan span(spans, {SpanKind::kAnnounce, r, 0}, request.timestamp,
                    {SpanKind::kAdvance, current_t, 0});
    if (r >= nrounds) {
      throw std::runtime_error("session announced round " +
                               std::to_string(r) +
                               " beyond the recording");
    }
    if (!SameRequest(request, rec.rounds[r].request)) bad_round[r] = 1;
    for (auto& feeder : feeders) feeder->Post(r);
  };
  transport.ingest = [&](const RoundRequest& request, ReportRouter& router) {
    const uint64_t r = request.round_index;
    const uint64_t ts = request.timestamp;
    std::vector<PayloadRef> packets;
    {
      ScopedSpan span(spans, {SpanKind::kTakeRound, r, 0}, ts,
                      {SpanKind::kAdvance, ts, 0});
      const uint64_t flushes = buffer.stats().deadline_flushes;
      packets = buffer.TakeRound(r);
      clock.take_end[r] = NowNs();
      if (buffer.stats().deadline_flushes != flushes) bad_round[r] = 1;
      span.set_items(packets.size());
    }
    ScopedSpan span(spans, {SpanKind::kIngestBatch, r, 0}, ts,
                    {SpanKind::kAdvance, ts, 0});
    span.set_items(packets.size());
    router.IngestBatch(packets, opt.threads);
  };
  auto session = std::make_unique<ldpids::service::MechanismSession>(
      std::move(mechanism), spec.domain, options, std::move(transport));
  res.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  res.setup_cpu_s = CpuSeconds() - setup_cpu0;
  if (opt.setup_only) {
    session.reset();
    for (auto& feeder : feeders) feeder->Stop();
    for (int fd : fds) close(fd);
    if (listener) listener->Stop();
    return res;
  }

  std::vector<uint8_t> release_ok;
  {
    std::optional<Scraper> scraper;
    if (endpoint) scraper.emplace(endpoint->port(), spans);
    Serve(rec, spans, &current_t, clock, [&] { return session->Advance(); },
          &release_ok, &res);
    if (scraper) scraper->Finish(&res);
  }

  // Teardown, untimed: the session drains a round it announced ahead
  // before it dies, so the feeders must outlive it.
  res.rounds = session->rounds();
  res.ingest = session->stats();
  res.accepted = res.ingest.accepted;
  session.reset();
  for (auto& feeder : feeders) {
    feeder->Stop();
    for (const std::string& e : feeder->errors()) res.errors.push_back(e);
  }
  if (listener) {
    for (int fd : fds) close(fd);
    listener->Stop();
    res.frames = listener->stats();
  } else {
    res.frames = decoder.stats();
  }
  res.buffer = buffer.stats();
  tally.Sum(&res.handler_deliver_ns, &res.handler_frames);
  for (uint64_t r = 0; r < res.rounds && r < nrounds; ++r) {
    const uint64_t last = clock.last_byte[r].load();
    const uint64_t take = clock.take_end[r].load();
    if (last != kUnset && take != kUnset) {
      res.socket_lag_us.push_back(
          take > last ? static_cast<double>(take - last) / 1e3 : 0.0);
    }
  }

  // Every counter against the recording.
  const NetworkCounts want = ExpectedNetwork(rec, res.rounds);
  ExpectEq("frames", res.frames.frames, want.frames, &res);
  ExpectEq("frame errors", res.frames.errors(), want.frame_errors, &res);
  ExpectEq("skipped bytes", res.frames.skipped_bytes, want.skipped_bytes,
           &res);
  ExpectEq("frame checksum mismatches", res.frames.checksum_mismatch,
           want.checksum_mismatch, &res);
  ExpectEq("duplicate frames", res.buffer.duplicate_frames,
           want.duplicate_frames, &res);
  ExpectEq("dropped frames", res.buffer.dropped(), want.dropped_frames,
           &res);
  ExpectEq("deadline flushes", res.buffer.deadline_flushes, uint64_t{0},
           &res);
  ldpids::service::IngestStats want_ingest = rec.reference_stats;
  want_ingest.duplicate += ExpectedNetwork(rec, rec.served_rounds)
                               .duplicate_frames;
  ExpectEq("accepted", res.ingest.accepted, want_ingest.accepted, &res);
  ExpectEq("rejected malformed", res.ingest.malformed, want_ingest.malformed,
           &res);
  ExpectEq("rejected wrong oracle", res.ingest.wrong_oracle,
           want_ingest.wrong_oracle, &res);
  ExpectEq("rejected wrong timestamp", res.ingest.wrong_timestamp,
           want_ingest.wrong_timestamp, &res);
  ExpectEq("rejected duplicate", res.ingest.duplicate, want_ingest.duplicate,
           &res);
  ExpectEq("rejected by sketch", res.ingest.sketch_rejected,
           want_ingest.sketch_rejected, &res);
  Verdict(rec, release_ok, bad_round, &res);
  return res;
}

// Upstream link of one aggregator: encodes the partial-sketch frame the
// node sends and decodes it on the root's side into the root's buffer,
// timing the hop as one partial_send span.
class UpstreamLink final : public ldpids::transport::FrameSender {
 public:
  UpstreamLink(RoundBuffer& root_buffer, SpanLog* spans, uint32_t lane)
      : root_buffer_(root_buffer), spans_(spans), lane_(lane) {}

  void set_trace(uint64_t ts) { ts_ = ts; }

  void Send(const Frame& frame) override {
    span_.emplace(spans_, SpanKey{SpanKind::kPartialSend, frame.timestamp,
                                  lane_},
                  ts_, SpanKey{SpanKind::kAggregatorRound, frame.timestamp,
                               lane_});
    pending_.clear();
    ldpids::transport::AppendEncodedFrame(frame, &pending_);
    bytes_ += frame.payload.size();
  }

  void Flush() override {
    decoder_.Append(pending_);
    Frame frame;
    while (decoder_.Next(&frame)) root_buffer_.Deliver(std::move(frame));
    span_.reset();
  }

  uint64_t bytes() const { return bytes_; }
  const ldpids::transport::FrameStats& stats() const {
    return decoder_.stats();
  }

 private:
  RoundBuffer& root_buffer_;
  SpanLog* spans_;
  const uint32_t lane_;
  uint64_t ts_ = 0;
  std::vector<uint8_t> pending_;
  FrameDecoder decoder_;  // the root's end of this link
  uint64_t bytes_ = 0;
  std::optional<ScopedSpan> span_;
};

// One aggregator: its client-facing decoder and buffer, the node itself
// and its link to the root. Touched only by its own worker thread.
struct AggregatorSlot {
  AggregatorSlot(const WorkloadSpec& spec, RoundBuffer& root_buffer,
                 SpanLog* spans, uint32_t lane,
                 ldpids::transport::RoundBufferOptions buffer_options)
      : buffer(buffer_options),
        node(ldpids::GetFrequencyOracle(spec.fo),
             ldpids::OracleIdFromName(spec.fo), spec.domain,
             ldpids::service::AggregatorOptions{1, lane, nullptr, ""}),
        link(root_buffer, spans, lane) {}
  FrameDecoder decoder;
  RoundBuffer buffer;
  ldpids::service::AggregatorNode node;
  UpstreamLink link;
  std::vector<double> lag_us;  // last byte in -> TakeRound returned
};

ReplayResult ReplayTree(const Recording& rec, const ReplayOptions& opt) {
  const WorkloadSpec& spec = *rec.spec;
  SpanLog* spans = opt.spans;
  const std::size_t nrounds = rec.rounds.size();
  ReplayResult res;
  RoundClock clock(nrounds);
  std::vector<uint8_t> bad_round(nrounds, 0);
  std::vector<RoundRequest> requests(nrounds);
  std::size_t current_t = 0;

  const uint64_t setup0 = NowNs();
  const double setup_cpu0 = CpuSeconds();
  auto mechanism = ldpids::CreateMechanism(spec.mechanism, ConfigFor(spec),
                                           spec.users);
  ldpids::transport::RoundBufferOptions buffer_options;
  buffer_options.round_deadline = kRoundDeadline;
  RoundBuffer root_buffer(buffer_options);
  std::vector<std::unique_ptr<AggregatorSlot>> slots;
  for (std::size_t k = 0; k < spec.lanes; ++k) {
    slots.push_back(std::make_unique<AggregatorSlot>(
        spec, root_buffer, spans, static_cast<uint32_t>(k), buffer_options));
  }
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t k = 0; k < spec.lanes; ++k) {
    workers.push_back(std::make_unique<Worker>([&, k](uint64_t r) {
      AggregatorSlot& slot = *slots[k];
      const uint32_t lane = static_cast<uint32_t>(k);
      const RoundRequest request = requests[r];
      const uint64_t ts = request.timestamp;
      const SpanKey agg{SpanKind::kAggregatorRound, r, lane};
      ScopedSpan span(spans, agg, ts, {SpanKind::kAdvance, ts, 0});
      uint64_t last = kUnset;
      {
        ScopedSpan feed(spans, {SpanKind::kFeed, r, lane}, ts, agg);
        feed.set_items(rec.rounds[r].lanes[k].size());
        AtomicMin(clock.first_byte[r], NowNs());
        FeedBytes(slot.decoder, rec.rounds[r].lanes[k], slot.buffer, spans,
                  r, ts, lane, &last);
      }
      auto ingest = [&](const RoundRequest& req, ReportRouter& router) {
        std::vector<PayloadRef> packets;
        {
          ScopedSpan take(spans, {SpanKind::kTakeRound, r, lane}, ts, agg);
          packets = slot.buffer.TakeRound(req.round_index);
          take.set_items(packets.size());
        }
        slot.lag_us.push_back(static_cast<double>(NowNs() - last) / 1e3);
        ScopedSpan batch(spans, {SpanKind::kIngestBatch, r, lane}, ts, agg);
        batch.set_items(packets.size());
        router.IngestBatch(packets, 1);
      };
      slot.link.set_trace(ts);
      slot.node.RunRoundUpstream(request, ingest, slot.link, kSessionId);
    }));
  }
  auto root = std::make_unique<ldpids::service::RootSession>(
      std::move(mechanism), spec.domain, SessionOptionsFor(opt.threads),
      spec.lanes, kSessionId, root_buffer,
      [&](const RoundRequest& request) {
        const uint64_t r = request.round_index;
        ScopedSpan span(spans, {SpanKind::kAnnounce, r, 0}, request.timestamp,
                        {SpanKind::kAdvance, current_t, 0});
        if (r >= nrounds) {
          throw std::runtime_error("root announced round " +
                                   std::to_string(r) +
                                   " beyond the recording");
        }
        if (request.cohort != nullptr) {
          throw std::runtime_error("tree replay expects whole-population "
                                   "rounds");
        }
        if (!SameRequest(request, rec.rounds[r].request)) bad_round[r] = 1;
        requests[r] = request;
        for (auto& worker : workers) worker->Post(r);
      });
  res.setup_s = static_cast<double>(NowNs() - setup0) / 1e9;
  res.setup_cpu_s = CpuSeconds() - setup_cpu0;
  if (opt.setup_only) {
    for (auto& worker : workers) worker->Stop();
    root.reset();
    return res;
  }

  std::vector<uint8_t> release_ok;
  Serve(rec, spans, &current_t, clock, [&] { return root->Advance(); },
        &release_ok, &res);

  res.rounds = root->session().rounds();
  res.accepted = root->session().stats().accepted;
  res.merges = root->merge_stats();
  const ldpids::service::IngestStats root_stats = root->session().stats();
  // The workers finish every posted round — including one the root
  // announced ahead — so the root's ingest worker can drain it when the
  // root is destroyed.
  for (auto& worker : workers) {
    worker->Stop();
    for (const std::string& e : worker->errors()) res.errors.push_back(e);
  }
  root.reset();
  ldpids::transport::FrameStats frames;
  ldpids::transport::RoundBufferStats buffers = root_buffer.stats();
  for (const auto& slot : slots) {
    frames += slot->decoder.stats();
    buffers += slot->buffer.stats();
    res.ingest += slot->node.stats();
    res.partial_bytes += slot->link.bytes();
    res.socket_lag_us.insert(res.socket_lag_us.end(), slot->lag_us.begin(),
                             slot->lag_us.end());
  }
  res.frames = frames;
  res.buffer = buffers;

  const NetworkCounts want = ExpectedNetwork(rec, res.rounds);
  ExpectEq("frames", res.frames.frames, want.frames, &res);
  ExpectEq("frame errors", res.frames.errors(), uint64_t{0}, &res);
  ExpectEq("duplicate frames", res.buffer.duplicate_frames, uint64_t{0},
           &res);
  ExpectEq("dropped frames", res.buffer.dropped(), uint64_t{0}, &res);
  ExpectEq("deadline flushes", res.buffer.deadline_flushes, uint64_t{0},
           &res);
  ExpectEq("accepted", root_stats.accepted, rec.reference_stats.accepted,
           &res);
  ExpectEq("partials merged", res.merges.merged,
           static_cast<uint64_t>(rec.served_rounds * spec.lanes), &res);
  ExpectEq("partials missing", res.merges.missing, uint64_t{0}, &res);
  ExpectEq("partials rejected", res.merges.rejected(), uint64_t{0}, &res);
  Verdict(rec, release_ok, bad_round, &res);
  return res;
}

}  // namespace

ReplayResult Replay(const Recording& recording, const ReplayOptions& options) {
  return recording.spec->feed == FeedMode::kTree
             ? ReplayTree(recording, options)
             : ReplayFlat(recording, options);
}

}  // namespace replaybench
