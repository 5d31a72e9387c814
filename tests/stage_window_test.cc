// One stage window, two consumers: every stage a session records lands in
// the ldpids_stage_duration_ns histogram and in the flight recorder from
// the same start/end window, so the histogram's count and sum equal the
// recorder's event count and summed (end - start) per stage. Checked for a
// local-ingest session and a merge-tree root, serial and pipelined.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "service/aggregator.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"

namespace ldpids {
namespace {

using obs::FlightRecorder;
using obs::MetricsRegistry;
using obs::Stage;
using service::RoundRequest;
using service::SessionOptions;

constexpr std::size_t kDomain = 10;
constexpr uint64_t kUsers = 300;
constexpr std::size_t kSteps = 5;
constexpr uint64_t kRootSession = 0x5EED;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig Config() {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 4;
  c.fo = "GRR";
  c.seed = 91;
  return c;
}

SessionOptions Options(std::size_t depth, MetricsRegistry* registry,
                       FlightRecorder* recorder) {
  SessionOptions options;
  options.num_shards = 2;
  options.pipeline_depth = depth;
  options.metrics = registry;
  options.metrics_label = "s";
  options.recorder = recorder;
  return options;
}

struct StageTotals {
  uint64_t count = 0;
  uint64_t sum = 0;
};

// Compares both consumers stage by stage. `rounds` announced rounds of
// which `claimed` were consumed: announce is observed in the histogram
// when a round is announced but joins the recorder's per-round event
// chain only once the round is claimed, so a prefetched round the run
// never consumed shows in the announce histogram alone.
void ExpectHistogramsMatchRecorder(const MetricsRegistry& registry,
                                   const FlightRecorder& recorder,
                                   uint64_t rounds, const std::string& label) {
  StageTotals events[obs::kNumStages];
  for (const obs::RoundEvent& ev : recorder.Snapshot().events) {
    StageTotals& t = events[static_cast<std::size_t>(ev.stage)];
    ++t.count;
    t.sum += ev.t_end_ns - ev.t_start_ns;
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  auto histogram = [&](Stage stage) {
    const obs::HistogramSample* h = snap.FindHistogram(
        obs::kStageDurationMetric,
        {{"session", "s"}, {"stage", obs::StageName(stage)}});
    EXPECT_NE(h, nullptr) << label << " " << obs::StageName(stage);
    return h == nullptr ? StageTotals{} : StageTotals{h->count, h->sum};
  };
  const uint64_t claimed =
      events[static_cast<std::size_t>(Stage::kEstimate)].count;
  ASSERT_GT(claimed, 0u) << label;
  for (std::size_t s = 0; s < obs::kNumStages; ++s) {
    const Stage stage = static_cast<Stage>(s);
    const StageTotals h = histogram(stage);
    const std::string what = label + " " + obs::StageName(stage);
    if (stage == Stage::kAnnounce && rounds != claimed) {
      EXPECT_EQ(h.count, events[s].count + (rounds - claimed)) << what;
      EXPECT_GE(h.sum, events[s].sum) << what;
      continue;
    }
    EXPECT_EQ(h.count, events[s].count) << what;
    EXPECT_EQ(h.sum, events[s].sum) << what;
  }
}

TEST(StageWindowTest, LocalSessionHistogramsMatchRecorder) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    const std::string label = "local/depth=" + std::to_string(depth);
    MetricsRegistry registry;
    FlightRecorder recorder;
    const service::ClientFleet fleet(kUsers, TruthValue, 4242);
    service::MechanismSession session(
        CreateMechanism("LBA", Config(), kUsers), kDomain,
        Options(depth, &registry, &recorder), fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) session.Advance();
    ExpectHistogramsMatchRecorder(registry, recorder, session.rounds(),
                                  label);

    // Local ingest fills every ingest-side window of each claimed round,
    // and never the root's partial-merge stage.
    const obs::FlightRecorderSnapshot snap = recorder.Snapshot();
    uint64_t per_stage[obs::kNumStages] = {};
    for (const obs::RoundEvent& ev : snap.events) {
      ++per_stage[static_cast<std::size_t>(ev.stage)];
    }
    const uint64_t claimed =
        per_stage[static_cast<std::size_t>(Stage::kEstimate)];
    for (const Stage s : {Stage::kTransportRtt, Stage::kArenaDecode,
                          Stage::kShardFold, Stage::kMerge}) {
      EXPECT_EQ(per_stage[static_cast<std::size_t>(s)], claimed)
          << label << " " << obs::StageName(s);
    }
    EXPECT_EQ(per_stage[static_cast<std::size_t>(Stage::kSketchMerge)], 0u)
        << label;
  }
}

// The three ingest slices tile the transport window: transport_rtt is its
// head, arena_decode and shard_fold its two tail slices.
TEST(StageWindowTest, IngestSlicesTileTheTransportWindow) {
  FlightRecorder recorder;
  const service::ClientFleet fleet(kUsers, TruthValue, 4242);
  service::MechanismSession session(CreateMechanism("LBA", Config(), kUsers),
                                    kDomain, Options(1, nullptr, &recorder),
                                    fleet.Transport(1));
  for (std::size_t t = 0; t < kSteps; ++t) session.Advance();
  const obs::FlightRecorderSnapshot snap = recorder.Snapshot();
  std::vector<const obs::RoundEvent*> rtt, arena, fold;
  for (const obs::RoundEvent& ev : snap.events) {
    if (ev.stage == Stage::kTransportRtt) rtt.push_back(&ev);
    if (ev.stage == Stage::kArenaDecode) arena.push_back(&ev);
    if (ev.stage == Stage::kShardFold) fold.push_back(&ev);
  }
  ASSERT_FALSE(rtt.empty());
  ASSERT_EQ(arena.size(), rtt.size());
  ASSERT_EQ(fold.size(), rtt.size());
  for (std::size_t i = 0; i < rtt.size(); ++i) {
    EXPECT_EQ(arena[i]->round_index, rtt[i]->round_index);
    EXPECT_EQ(fold[i]->round_index, rtt[i]->round_index);
    EXPECT_EQ(rtt[i]->t_end_ns, arena[i]->t_start_ns) << i;
    EXPECT_EQ(arena[i]->t_end_ns, fold[i]->t_start_ns) << i;
  }
}

TEST(StageWindowTest, RootSessionHistogramsMatchRecorder) {
  for (const std::size_t depth : {std::size_t{1}, std::size_t{2}}) {
    const std::string label = "root/depth=" + std::to_string(depth);
    MetricsRegistry registry;
    FlightRecorder recorder;
    const service::ClientFleet fleet(kUsers, TruthValue, 4242);
    const service::UserAssignment assign(2, kUsers);
    std::vector<std::unique_ptr<service::AggregatorNode>> children;
    for (uint64_t k = 0; k < 2; ++k) {
      service::AggregatorOptions options;
      options.node_id = k;
      children.push_back(std::make_unique<service::AggregatorNode>(
          GetFrequencyOracle("GRR"), OracleId::kGrr, kDomain, options));
    }
    transport::RoundBuffer buffer;
    auto announce = [&](const RoundRequest& request) {
      const auto slices = assign.PartitionAll();
      for (std::size_t k = 0; k < children.size(); ++k) {
        RoundRequest child_request = request;
        child_request.cohort = &slices[k];
        auto ingest = [&](const RoundRequest& req,
                          service::ReportRouter& router) {
          router.IngestBatch(fleet.ProduceRound(req, 1), 1);
        };
        buffer.Deliver(transport::MakePartialSketchFrame(
            kRootSession, request.round_index,
            children[k]->RunRoundToPartial(child_request, ingest)));
      }
    };
    service::RootSession root(CreateMechanism("LBA", Config(), kUsers),
                              kDomain, Options(depth, &registry, &recorder),
                              children.size(), kRootSession, buffer,
                              announce);
    for (std::size_t t = 0; t < kSteps; ++t) root.Advance();
    ExpectHistogramsMatchRecorder(registry, recorder,
                                  root.session().rounds(), label);

    // The root times its partial merge once per claimed round.
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const obs::HistogramSample* sketch_merge =
        snap.FindHistogram(obs::kStageDurationMetric,
                           {{"session", "s"}, {"stage", "sketch_merge"}});
    const obs::HistogramSample* estimate =
        snap.FindHistogram(obs::kStageDurationMetric,
                           {{"session", "s"}, {"stage", "estimate"}});
    ASSERT_NE(sketch_merge, nullptr);
    ASSERT_NE(estimate, nullptr);
    EXPECT_EQ(sketch_merge->count, estimate->count) << label;
    EXPECT_GT(sketch_merge->sum, 0u) << label;
  }
}

}  // namespace
}  // namespace ldpids
