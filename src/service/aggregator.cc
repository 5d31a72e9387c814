#include "service/aggregator.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/stage_trace.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids::service {

// --- AggregatorNode -------------------------------------------------------

AggregatorNode::AggregatorNode(const FrequencyOracle& fo, OracleId oracle,
                               std::size_t domain, AggregatorOptions options)
    : fo_(fo), oracle_(oracle), domain_(domain), options_(std::move(options)) {
  if (domain_ < 2) {
    throw std::invalid_argument("aggregator domain must have >= 2 values");
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    obs::Labels labels;
    if (!options_.metrics_label.empty()) {
      labels.emplace_back("node", options_.metrics_label);
    }
    ingest_feed_ =
        std::make_unique<obs::StatsFeed<IngestStats>>(&reg, labels);
    rounds_counter_ =
        &reg.GetCounter("ldpids_aggregator_rounds_total", labels);
    partials_counter_ =
        &reg.GetCounter("ldpids_aggregator_partials_emitted_total", labels);
    partial_bytes_counter_ =
        &reg.GetCounter("ldpids_aggregator_partial_bytes_total", labels);
  }
}

void AggregatorNode::ExecuteRound(const RoundRequest& request,
                                  const RoundTransport& ingest, bool timed,
                                  RoundOutcome* out) {
  if (request.timestamp > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument("timestamp does not fit the wire");
  }
  const FoParams params{request.epsilon, domain_};
  ReportRouter router(fo_, params, oracle_,
                      static_cast<uint32_t>(request.timestamp),
                      options_.num_shards);
  if (timed) router.EnableStageTiming();
  const uint64_t t0 = timed ? obs::NowNs() : 0;
  ingest(request, router);
  const uint64_t t1 = timed ? obs::NowNs() : 0;
  out->sketch = router.Close(&out->stats);
  out->decode_stats = router.decode_stats();
  if (timed) {
    out->window(obs::Stage::kMerge) = {t1, obs::NowNs()};
    // Arena decode and shard folding run interleaved inside the ingest
    // window (per IngestBatch call), so they have no wall window of their
    // own: anchor them as its two tail slices, leaving the head slice —
    // time spent waiting on clients and the network — as transport RTT.
    // Saturate: fold time summed across shards can exceed the window on
    // multi-thread routers, which collapses the head slice to nothing.
    auto minus = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
    const RouterStageNanos& busy = router.stage_nanos();
    const uint64_t fold_start = minus(t1, busy.shard_fold);
    const uint64_t arena_start = minus(fold_start, busy.arena_decode);
    out->window(obs::Stage::kTransportRtt) = {t0, std::max(t0, arena_start)};
    out->window(obs::Stage::kArenaDecode) = {arena_start, fold_start};
    out->window(obs::Stage::kShardFold) = {fold_start, t1};
  }
  ++rounds_;
  stats_ += out->stats;
  if (rounds_counter_ != nullptr) rounds_counter_->Add(1);
  if (ingest_feed_ != nullptr) ingest_feed_->Add(out->stats);
}

std::vector<uint8_t> AggregatorNode::RunRoundToPartial(
    const RoundRequest& request, const RoundTransport& ingest,
    IngestStats* stats) {
  RoundOutcome outcome;
  ExecuteRound(request, ingest, /*timed=*/false, &outcome);
  if (stats != nullptr) *stats = outcome.stats;
  std::vector<uint8_t> payload = EncodePartialSketch(
      *outcome.sketch, oracle_, options_.node_id, request.round_index,
      static_cast<uint32_t>(request.timestamp), request.epsilon);
  if (partials_counter_ != nullptr) partials_counter_->Add(1);
  if (partial_bytes_counter_ != nullptr) {
    partial_bytes_counter_->Add(payload.size());
  }
  return payload;
}

void AggregatorNode::RunRoundUpstream(const RoundRequest& request,
                                      const RoundTransport& ingest,
                                      transport::FrameSender& upstream,
                                      uint64_t session_id) {
  transport::SendPartialSketch(upstream, session_id, request.round_index,
                               RunRoundToPartial(request, ingest));
}

// --- UserAssignment -------------------------------------------------------

UserAssignment::UserAssignment(std::size_t num_nodes, uint64_t num_users,
                               AssignMode mode, uint64_t salt)
    : num_nodes_(num_nodes), num_users_(num_users), mode_(mode), salt_(salt) {
  if (num_nodes_ == 0) {
    throw std::invalid_argument("assignment needs >= 1 node");
  }
  if (mode_ == AssignMode::kRange && num_users_ == 0) {
    throw std::invalid_argument("range assignment needs >= 1 user");
  }
}

std::size_t UserAssignment::NodeOf(uint32_t user) const {
  if (mode_ == AssignMode::kStableHash) {
    return static_cast<std::size_t>(Mix64(user ^ salt_) % num_nodes_);
  }
  // Range: u128-free balanced split — user/num_users scaled to num_nodes.
  // num_nodes * user cannot overflow: user < 2^32 and realistic fan-ins
  // are tiny, but guard with the order that keeps intermediates small.
  const uint64_t u = user < num_users_ ? user : num_users_ - 1;
  return static_cast<std::size_t>((u * num_nodes_) / num_users_);
}

std::vector<std::vector<uint32_t>> UserAssignment::PartitionAll() const {
  std::vector<std::vector<uint32_t>> slices(num_nodes_);
  for (uint64_t u = 0; u < num_users_; ++u) {
    slices[NodeOf(static_cast<uint32_t>(u))].push_back(
        static_cast<uint32_t>(u));
  }
  return slices;
}

std::vector<std::vector<uint32_t>> UserAssignment::Partition(
    const std::vector<uint32_t>& cohort) const {
  std::vector<std::vector<uint32_t>> slices(num_nodes_);
  for (uint32_t user : cohort) slices[NodeOf(user)].push_back(user);
  return slices;
}

// --- RootSession ----------------------------------------------------------

namespace {

// Null check usable from a member-init list (the wrapped MechanismSession
// would reject null too, but only after fo_/oracle_ dereferenced it).
const std::string& MechanismFoName(
    const std::unique_ptr<StreamMechanism>& mechanism) {
  if (mechanism == nullptr) {
    throw std::invalid_argument("session needs a mechanism");
  }
  return mechanism->config().fo;
}

}  // namespace

RootSession::RootSession(std::unique_ptr<StreamMechanism> mechanism,
                         std::size_t domain, SessionOptions options,
                         std::size_t num_children, uint64_t session_id,
                         transport::RoundBuffer& buffer,
                         RoundAnnounce announce)
    : fo_(GetFrequencyOracle(MechanismFoName(mechanism))),
      oracle_(OracleIdFromName(mechanism->config().fo)),
      num_children_(num_children),
      session_id_(session_id),
      buffer_(buffer) {
  if (num_children_ == 0) {
    throw std::invalid_argument("root needs >= 1 child");
  }
  // Wrap the caller's announce: after the round is pushed to the children,
  // tell our own buffer how many partials complete it. First-marker-wins
  // in the buffer, and children never send markers, so K is authoritative.
  RoundAnnounce root_announce =
      [this, user = std::move(announce)](const RoundRequest& request) {
        if (user) user(request);
        buffer_.Deliver(transport::MakeEndRoundFrame(
            session_id_, request.round_index, num_children_));
      };
  session_ = std::make_unique<MechanismSession>(
      std::move(mechanism), domain, options, std::move(root_announce),
      [this](const RoundRequest& request, bool timed, RoundOutcome* out) {
        MergeRound(request, timed, out);
      });
}

void RootSession::MergeRound(const RoundRequest& request, bool timed,
                             RoundOutcome* out) {
  const uint64_t t0 = timed ? obs::NowNs() : 0;
  // Blocks until K distinct partials arrived or the buffer's deadline
  // flushed the round (dead children) — the root's "transport RTT".
  const std::vector<PayloadRef> partials =
      buffer_.TakeRound(request.round_index);
  if (timed) out->window(obs::Stage::kTransportRtt) = {t0, obs::NowNs()};
  const FoParams params{request.epsilon, request.domain};
  out->sketch = fo_.CreateSketch(params);
  const uint64_t m0 = timed ? obs::NowNs() : 0;
  std::vector<uint64_t> seen;
  seen.reserve(num_children_);
  for (const PayloadRef& partial : partials) {
    MergePartialSketch(partial.data(), partial.size(), oracle_,
                       request.round_index, request.epsilon, request.domain,
                       out->sketch.get(), &seen, &out->sketch_merges);
  }
  if (out->sketch_merges.merged < num_children_) {
    // Announced children whose partial never made it: the typed
    // failed-aggregator signal (PR 5 burned-round contract kicks in only
    // if the survivors contributed zero users in total).
    out->sketch_merges.missing +=
        num_children_ - out->sketch_merges.merged;
  }
  if (timed) out->window(obs::Stage::kSketchMerge) = {m0, obs::NowNs()};
  // IngestStats parity so session-level accounting (stats(), the ingest
  // feed, the recorder's accepted/rejected annotations) keeps meaning
  // "reports this round speaks for" at every tier of the tree.
  out->stats.accepted = out->sketch_merges.users_merged;
  out->stats.malformed = out->sketch_merges.malformed;
  out->stats.wrong_oracle = out->sketch_merges.wrong_oracle;
  out->stats.wrong_timestamp = out->sketch_merges.wrong_round;
  out->stats.duplicate = out->sketch_merges.duplicate_node;
  out->stats.sketch_rejected = out->sketch_merges.params_mismatch;
}

}  // namespace ldpids::service
