// Self-tests of the replay benchmark's own arithmetic and generators:
// span self time, unattributed advance time, the percentile sample rule,
// and the hostile-mix generator's expected counters against the real
// decoder, RoundBuffer and ingest path.
// Run: .bench_build/replaybench/replaybench_test
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fo/client.h"
#include "fo/frequency_oracle.h"
#include "hostile.h"
#include "service/ingest.h"
#include "span_log.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/rng.h"

namespace {

using namespace replaybench;

int failures = 0;

#define CHECK_EQ(a, b)                                                     \
  do {                                                                     \
    const auto va = (a);                                                   \
    const auto vb = (b);                                                   \
    if (!(va == vb)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK_EQ(%s, %s) failed: %s vs %s\n",   \
                   __FILE__, __LINE__, #a, #b, std::to_string(va).c_str(), \
                   std::to_string(vb).c_str());                            \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

#define CHECK(cond)                                                        \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      ++failures;                                                          \
    }                                                                      \
  } while (0)

Span MakeSpan(SpanKind kind, uint64_t index, uint64_t start, uint64_t end) {
  Span s;
  s.key = {kind, index, 0};
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

Span Child(SpanKind kind, uint64_t index, uint32_t lane, uint64_t start,
           uint64_t end, SpanKey parent) {
  Span s = MakeSpan(kind, index, start, end);
  s.key.lane = lane;
  s.has_parent = true;
  s.parent = parent;
  return s;
}

void TestCoveredNs() {
  CHECK_EQ(CoveredNs(0, 100, {}), uint64_t{0});
  CHECK_EQ(CoveredNs(0, 100, {{10, 20}, {15, 30}, {50, 60}}), uint64_t{30});
  // Intervals reaching outside the window are clipped to it.
  CHECK_EQ(CoveredNs(100, 200, {{50, 120}, {190, 400}}), uint64_t{30});
  CHECK_EQ(CoveredNs(100, 200, {{0, 1000}}), uint64_t{100});
  CHECK_EQ(CoveredNs(100, 200, {{0, 50}, {300, 400}}), uint64_t{0});
  // Touching intervals merge without double counting.
  CHECK_EQ(CoveredNs(0, 100, {{0, 10}, {10, 20}}), uint64_t{20});
}

void TestSelfTimeWithPipelinedChildren() {
  // advance(5) runs [100, 300). Its round's take_round started before it
  // (pipelined: announced during advance(4)) and overlaps the ingest
  // batch, recorded on another thread; the next round's announce fires
  // inside it. Self time = 200 - |[100,180) U [150,200) U [250,260)| = 90.
  const SpanKey adv5{SpanKind::kAdvance, 5, 0};
  std::vector<Span> spans = {
      MakeSpan(SpanKind::kAdvance, 5, 100, 300),
      Child(SpanKind::kTakeRound, 9, 0, 40, 180, adv5),
      Child(SpanKind::kIngestBatch, 9, 0, 150, 200, adv5),
      Child(SpanKind::kAnnounce, 10, 0, 250, 260, adv5),
      // A grandchild does not count against advance(5) directly.
      Child(SpanKind::kFeed, 10, 0, 255, 400,
            {SpanKind::kAnnounce, 10, 0}),
      // A span of another trace overlapping advance(5) is not its child.
      MakeSpan(SpanKind::kScrape, 0, 210, 230),
  };
  const std::vector<int64_t> parents = ResolveParents(spans);
  CHECK_EQ(parents[0], int64_t{-1});
  CHECK_EQ(parents[1], int64_t{0});
  CHECK_EQ(parents[4], int64_t{3});
  CHECK_EQ(parents[5], int64_t{-1});
  const std::vector<uint64_t> self = SelfTimes(spans, parents);
  CHECK_EQ(self[0], uint64_t{90});
  CHECK_EQ(self[3], uint64_t{5});  // announce [250,260), feed from 255
  CHECK_EQ(self[1], uint64_t{140});
  // Unattributed: advance wall that no descendant covers. Covered:
  // [100,200) by take/ingest, [250,300) by the announce and its feed; the
  // scrape has no parent, so [200,250) = 50 of 200 stays uncovered.
  const double ratio = UnattributedRatio(spans, parents);
  CHECK(ratio > 0.2499 && ratio < 0.2501);
}

void TestUnattributedIgnoresOtherAdvances() {
  // advance(5) runs [100,200) and its round's ingest [100,140). The next
  // round's pipelined take_round and ingest_batch run on another thread
  // during advance(5) but belong to advance(6) [200,300): they cover only
  // advance(6)'s [200,250), never advance(5)'s [150,200).
  const SpanKey adv5{SpanKind::kAdvance, 5, 0};
  const SpanKey adv6{SpanKind::kAdvance, 6, 0};
  std::vector<Span> spans = {
      MakeSpan(SpanKind::kAdvance, 5, 100, 200),
      MakeSpan(SpanKind::kAdvance, 6, 200, 300),
      Child(SpanKind::kIngestBatch, 9, 0, 60, 140, adv5),
      Child(SpanKind::kTakeRound, 10, 0, 150, 230, adv6),
      Child(SpanKind::kIngestBatch, 10, 0, 230, 250, adv6),
      MakeSpan(SpanKind::kScrape, 0, 140, 300),
  };
  const std::vector<int64_t> parents = ResolveParents(spans);
  // Uncovered: advance(5) [140,200) = 60, advance(6) [250,300) = 50.
  const double ratio = UnattributedRatio(spans, parents);
  CHECK(ratio > 0.5499 && ratio < 0.5501);
  // Deeper descendants count: a feed under advance(6)'s announce covers
  // the rest of advance(6).
  spans.push_back(Child(SpanKind::kAnnounce, 11, 0, 250, 251, adv6));
  spans.push_back(Child(SpanKind::kFeed, 11, 0, 250, 300,
                        {SpanKind::kAnnounce, 11, 0}));
  const double with_feed = UnattributedRatio(spans, ResolveParents(spans));
  CHECK(with_feed > 0.2999 && with_feed < 0.3001);
}

void TestSelfTimeMissingParent() {
  // A child whose parent was never recorded stays unparented.
  std::vector<Span> spans = {
      Child(SpanKind::kTakeRound, 1, 0, 0, 10, {SpanKind::kAdvance, 7, 0})};
  const std::vector<int64_t> parents = ResolveParents(spans);
  CHECK_EQ(parents[0], int64_t{-1});
  CHECK_EQ(SelfTimes(spans, parents)[0], uint64_t{10});
}

void TestPercentileRule() {
  // Nearest rank: p95 of 200 samples is the 190th; 10 lie beyond it.
  CHECK_EQ(SamplesBeyond(200, 0.95), std::size_t{10});
  CHECK(PercentileSupported(200, 0.95));
  CHECK(!PercentileSupported(199, 0.95));
  CHECK_EQ(SamplesBeyond(199, 0.95), std::size_t{9});
  CHECK(PercentileSupported(1000, 0.99));
  CHECK(!PercentileSupported(999, 0.99));
  CHECK(PercentileSupported(20, 0.5));
  CHECK_EQ(SamplesBeyond(0, 0.5), std::size_t{0});
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  CHECK_EQ(Percentile(v, 0.95), 190.0);
  CHECK_EQ(Percentile(v, 0.5), 100.0);
  CHECK_EQ(Percentile({}, 0.5), 0.0);
  CHECK_EQ(Percentile({3.0}, 0.95), 3.0);
}

// A hostile round set built by the generator, decoded and buffered by the
// program, must show exactly the counters the generator predicted.
void TestHostileCountersMatchCollector() {
  using ldpids::transport::Frame;
  using ldpids::transport::FrameDecoder;
  using ldpids::transport::RoundBuffer;
  constexpr std::size_t kDomain = 64;
  constexpr std::size_t kUsers = 2000;
  constexpr std::size_t kRounds = 6;
  const ldpids::FrequencyOracle& fo = ldpids::GetFrequencyOracle("GRR");
  RoundBuffer buffer;
  FrameDecoder decoder;
  NetworkCounts want;
  ldpids::service::IngestStats want_ingest;
  ldpids::service::IngestStats got_ingest;
  std::vector<std::vector<std::vector<uint8_t>>> history;
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<std::vector<uint8_t>> frames;
    std::vector<bool> may_copy;
    std::vector<ldpids::PayloadRef> payloads;
    for (std::size_t user = 0; user < kUsers; ++user) {
      ldpids::Rng rng(ldpids::HashCounter(3, user, round));
      std::vector<uint8_t> packet = ldpids::PerturbToWire(
          ldpids::OracleId::kGrr, static_cast<uint32_t>(user % kDomain), 1.0,
          kDomain, static_cast<uint32_t>(round), user, rng);
      const ClientFault fault = ClientFaultFor(11, round, user);
      ApplyClientFault(fault, &packet);
      want_ingest.malformed += fault == ClientFault::kWireCorrupt;
      want_ingest.wrong_timestamp += fault == ClientFault::kWrongTimestamp;
      may_copy.push_back(fault == ClientFault::kNone);
      frames.push_back(ldpids::transport::EncodeFrame(
          ldpids::transport::MakeDataFrame(1, round, packet)));
    }
    const std::vector<uint8_t> marker = ldpids::transport::EncodeFrame(
        ldpids::transport::MakeEndRoundFrame(1, round, kUsers));
    const std::vector<std::vector<uint8_t>> none;
    NetworkCounts round_counts;
    const std::vector<uint8_t> stream = BuildHostileStream(
        frames, may_copy, marker,
        round >= 3 ? history[round - 3] : none, 100 + round, &round_counts);
    CHECK(round_counts.duplicate_frames > 0);
    CHECK(round_counts.skipped_bytes > 0);
    CHECK(round >= 3 ? round_counts.dropped_frames > 0
                     : round_counts.dropped_frames == 0);
    want += round_counts;
    want_ingest.duplicate += round_counts.duplicate_frames;
    history.push_back(frames);

    // Feed in odd-sized chunks so frames and junk split across reads.
    for (std::size_t off = 0; off < stream.size(); off += 777) {
      const std::size_t n = std::min<std::size_t>(777, stream.size() - off);
      decoder.Append(stream.data() + off, n);
      Frame frame;
      while (decoder.Next(&frame)) buffer.Deliver(std::move(frame));
    }
    const std::vector<ldpids::PayloadRef> packets = buffer.TakeRound(round);
    ldpids::service::ReportRouter router(fo, {1.0, kDomain},
                                         ldpids::OracleId::kGrr,
                                         static_cast<uint32_t>(round), 2);
    router.IngestBatch(packets, 1);
    ldpids::service::IngestStats stats;
    router.Close(&stats);
    got_ingest += stats;
  }
  const ldpids::transport::FrameStats& fs = decoder.stats();
  const ldpids::transport::RoundBufferStats bs = buffer.stats();
  CHECK_EQ(fs.frames, want.frames);
  CHECK_EQ(fs.errors(), want.frame_errors);
  CHECK_EQ(fs.skipped_bytes, want.skipped_bytes);
  CHECK_EQ(fs.checksum_mismatch, want.checksum_mismatch);
  CHECK_EQ(bs.duplicate_frames, want.duplicate_frames);
  CHECK_EQ(bs.dropped(), want.dropped_frames);
  CHECK_EQ(bs.deadline_flushes, uint64_t{0});
  CHECK_EQ(decoder.pending_bytes(), std::size_t{0});
  CHECK_EQ(got_ingest.malformed, want_ingest.malformed);
  CHECK_EQ(got_ingest.wrong_timestamp, want_ingest.wrong_timestamp);
  CHECK_EQ(got_ingest.duplicate, want_ingest.duplicate);
  CHECK_EQ(got_ingest.accepted, kRounds * kUsers - want_ingest.malformed -
                                    want_ingest.wrong_timestamp);
  // The hostile share lands near its design point of ~15%.
  const double hostile =
      static_cast<double>(want.duplicate_frames + want.checksum_mismatch +
                          want.dropped_frames + want_ingest.malformed +
                          want_ingest.wrong_timestamp) /
      (kRounds * kUsers);
  CHECK(hostile > 0.10 && hostile < 0.20);
}

void TestHostileStreamIsDeterministic() {
  std::vector<std::vector<uint8_t>> frames;
  for (uint8_t i = 0; i < 50; ++i) {
    frames.push_back(ldpids::transport::EncodeFrame(
        ldpids::transport::MakeDataFrame(1, 0, std::vector<uint8_t>{i})));
  }
  const std::vector<bool> may_copy(frames.size(), true);
  const std::vector<uint8_t> marker = ldpids::transport::EncodeFrame(
      ldpids::transport::MakeEndRoundFrame(1, 0, frames.size()));
  NetworkCounts a;
  NetworkCounts b;
  const auto sa = BuildHostileStream(frames, may_copy, marker, {}, 5, &a);
  const auto sb = BuildHostileStream(frames, may_copy, marker, {}, 5, &b);
  CHECK(sa == sb);
  CHECK(a == b);
  // The stream ends with a genuine frame (a straggler), never junk.
  bool ends_genuine = false;
  for (const auto& f : frames) {
    if (sa.size() >= f.size() &&
        std::equal(f.begin(), f.end(), sa.end() - f.size())) {
      ends_genuine = true;
    }
  }
  CHECK(ends_genuine);
}

}  // namespace

int main() {
  TestCoveredNs();
  TestSelfTimeWithPipelinedChildren();
  TestUnattributedIgnoresOtherAdvances();
  TestSelfTimeMissingParent();
  TestPercentileRule();
  TestHostileCountersMatchCollector();
  TestHostileStreamIsDeterministic();
  if (failures != 0) {
    std::fprintf(stderr, "replaybench_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("replaybench_test: all checks passed\n");
  return 0;
}
