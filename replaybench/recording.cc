#include "recording.h"

#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/factory.h"
#include "datagen/realworld_sim.h"
#include "service/aggregator.h"
#include "service/client_fleet.h"
#include "span_log.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "util/rng.h"

namespace replaybench {

using ldpids::service::RoundRequest;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec tcp;
    tcp.name = "bd-grr-tcp";
    tcp.mechanism = "LBA";
    tcp.fo = "GRR";
    tcp.domain = 64;
    tcp.users = 10000;
    tcp.feed = FeedMode::kTcp;
    tcp.lanes = 2;
    tcp.observability = true;
    w.push_back(tcp);

    WorkloadSpec hostile = tcp;
    hostile.name = "bd-grr-hostile";
    hostile.feed = FeedMode::kMemory;
    hostile.lanes = 1;
    hostile.hostile = true;
    hostile.observability = false;
    w.push_back(hostile);

    WorkloadSpec olh;
    olh.name = "pd-olh-d1024";
    olh.mechanism = "LPA";
    olh.fo = "OLH";
    olh.domain = 1024;
    olh.users = 200000;
    olh.feed = FeedMode::kMemory;
    // LPA publishes on 7-10% of timestamps and those slow releases hold
    // the p95; over 600 timestamps it sits among ~45 of them, not ~15, so
    // the seed moves it far less.
    olh.timestamps = 600;
    w.push_back(olh);

    WorkloadSpec tree;
    tree.name = "tree-hr-d4096";
    tree.mechanism = "LBD";
    tree.fo = "HR";
    tree.domain = 4096;
    tree.users = 4000;
    tree.post_process = ldpids::PostProcess::kNormSub;
    tree.feed = FeedMode::kTree;
    tree.lanes = 4;
    // Merge, estimate and norm-sub at d = 4096 run inside the root's
    // Advance, where no call of the benchmark's can wrap them.
    tree.max_unattributed = 0.55;
    w.push_back(tree);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

RecordedRequest RecordRequest(const RoundRequest& request) {
  RecordedRequest recorded;
  recorded.timestamp = request.timestamp;
  std::memcpy(&recorded.epsilon_bits, &request.epsilon, sizeof(double));
  recorded.round_index = request.round_index;
  recorded.whole_population = request.cohort == nullptr;
  if (request.cohort != nullptr) recorded.cohort = *request.cohort;
  return recorded;
}

bool SameRequest(const RoundRequest& request,
                 const RecordedRequest& recorded) {
  uint64_t epsilon_bits = 0;
  std::memcpy(&epsilon_bits, &request.epsilon, sizeof(double));
  if (request.timestamp != recorded.timestamp ||
      epsilon_bits != recorded.epsilon_bits ||
      request.round_index != recorded.round_index ||
      (request.cohort == nullptr) != recorded.whole_population) {
    return false;
  }
  return request.cohort == nullptr || *request.cohort == recorded.cohort;
}

ldpids::MechanismConfig ConfigFor(const WorkloadSpec& spec) {
  ldpids::MechanismConfig config;
  config.epsilon = 1.0;
  config.window = kWindow;
  config.fo = spec.fo;
  // Server-side configuration stays fixed; --seed moves only the traffic.
  config.seed = 7;
  config.post_process = spec.post_process;
  return config;
}

namespace {

// Each user's true value, drawn from the repository's generator of the
// paper's real-world stream shape (Section 7.1.2): a Zipf-skewed marginal
// with smooth logit-space drift, a daily cycle of 144 ten-minute slots and
// occasional bursts, all seeded by the workload seed.
ldpids::service::ClientFleet::ValueFn TruthFor(const WorkloadSpec& spec,
                                               uint64_t seed) {
  ldpids::RealWorldSimOptions options;
  options.seed = seed;
  std::shared_ptr<const ldpids::DistributionSequenceDataset> stream =
      ldpids::MakeDriftingZipfDataset(spec.name, spec.users,
                                      spec.timestamps + 1, spec.domain,
                                      /*timestamps_per_day=*/144, options);
  return [stream](uint64_t user, std::size_t t) -> uint32_t {
    return stream->value(user, t);
  };
}

void AppendData(uint64_t round, const std::vector<uint8_t>& packet,
                std::vector<uint8_t>* out) {
  ldpids::transport::AppendEncodedFrame(
      ldpids::transport::MakeDataFrame(
          kSessionId, round,
          ldpids::PayloadRef(nullptr, packet.data(), packet.size())),
      out);
}

std::vector<uint8_t> EncodeMarker(
    uint64_t round, const std::vector<std::vector<uint8_t>>& packets,
    const std::vector<std::size_t>& members) {
  std::unordered_set<uint64_t> distinct;
  for (std::size_t i : members) {
    distinct.insert(ldpids::transport::PacketIdentity(packets[i].data(),
                                                      packets[i].size()));
  }
  return ldpids::transport::EncodeFrame(
      ldpids::transport::MakeEndRoundFrame(kSessionId, round,
                                           distinct.size()));
}

void Append(std::vector<uint8_t>* out, const std::vector<uint8_t>& bytes) {
  out->insert(out->end(), bytes.begin(), bytes.end());
}

}  // namespace

Recording Record(const WorkloadSpec& spec, uint64_t seed,
                 std::size_t threads) {
  Recording rec;
  rec.spec = &spec;
  const ldpids::service::ClientFleet fleet(
      spec.users, TruthFor(spec, seed), ldpids::HashCounter(seed, 0xF1EE7, 0));
  const ldpids::service::UserAssignment assignment(
      spec.lanes, spec.users, ldpids::service::AssignMode::kRange);
  // Hostile stale replays re-send frames of the round three back, which
  // a pipelined session has drained by the time this round is announced.
  std::deque<std::vector<std::vector<uint8_t>>> history;

  // ClientFleet::Transport's body (ProduceRound, then the packets' client
  // faults, then IngestBatch), with production timed and every ingested
  // packet captured.
  auto transport = [&](const RoundRequest& request,
                       ldpids::service::ReportRouter& router) {
    const uint64_t t0 = NowNs();
    std::vector<std::vector<uint8_t>> packets =
        fleet.ProduceRound(request, threads);
    rec.produce_ns += NowNs() - t0;
    rec.produced_reports += packets.size();
    const uint64_t round = request.round_index;
    auto user_of = [&](std::size_t i) -> uint64_t {
      return request.cohort != nullptr ? (*request.cohort)[i] : i;
    };

    RecordedRound rr;
    rr.request = RecordRequest(request);
    rr.cohort_size = packets.size();
    std::vector<std::size_t> all(packets.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    if (spec.hostile) {
      std::vector<bool> may_copy(packets.size());
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const ClientFault fault = ClientFaultFor(seed, round, user_of(i));
        ApplyClientFault(fault, &packets[i]);
        may_copy[i] = fault == ClientFault::kNone;
      }
      std::vector<std::vector<uint8_t>> frames;
      frames.reserve(packets.size());
      for (const auto& p : packets) {
        AppendData(round, p, &frames.emplace_back());
      }
      const std::vector<std::vector<uint8_t>> none;
      rr.lanes.push_back(BuildHostileStream(
          frames, may_copy, EncodeMarker(round, packets, all),
          history.size() == 3 ? history.front() : none,
          ldpids::HashCounter(seed, round, 0x4057), &rr.network));
      history.push_back(std::move(frames));
      if (history.size() > 3) history.pop_front();
    } else {
      // Lane of each packet: round-robin stripes over connections, the
      // user's aggregator in a tree, else the single feeder.
      std::vector<std::vector<std::size_t>> members(spec.lanes);
      for (std::size_t i = 0; i < packets.size(); ++i) {
        const std::size_t lane =
            spec.feed == FeedMode::kTree
                ? assignment.NodeOf(static_cast<uint32_t>(user_of(i)))
                : i % spec.lanes;
        members[lane].push_back(i);
      }
      rr.lanes.resize(spec.lanes);
      for (std::size_t lane = 0; lane < spec.lanes; ++lane) {
        std::vector<uint8_t>& out = rr.lanes[lane];
        out.reserve(members[lane].size() * 64);
        for (std::size_t i : members[lane]) AppendData(round, packets[i], &out);
        rr.network.frames += members[lane].size();
      }
      // One marker per round over striped connections (SendRoundFrames'
      // convention: via the first connection, after the data), one per
      // slice when each aggregator completes its own round.
      if (spec.feed == FeedMode::kTree) {
        for (std::size_t lane = 0; lane < spec.lanes; ++lane) {
          Append(&rr.lanes[lane], EncodeMarker(round, packets, members[lane]));
          rr.network.frames += 1;
        }
      } else {
        Append(&rr.lanes[0], EncodeMarker(round, packets, all));
        rr.network.frames += 1;
      }
    }
    for (const auto& lane : rr.lanes) rec.traffic_bytes += lane.size();
    if (rec.traffic_bytes > kTrafficCeilingBytes) {
      throw std::runtime_error("pre-encoded traffic exceeds the ceiling");
    }
    rec.rounds.push_back(std::move(rr));
    router.IngestBatch(packets, threads);
  };

  ldpids::service::SessionOptions options;
  options.num_shards = 0;
  options.num_threads = threads;
  options.pipeline_depth = 1;
  ldpids::service::MechanismSession reference(
      ldpids::CreateMechanism(spec.mechanism, ConfigFor(spec), spec.users),
      spec.domain, options, transport);
  for (std::size_t t = 0; t < spec.timestamps; ++t) {
    rec.releases.push_back(reference.Advance());
  }
  rec.reference_stats = reference.stats();
  rec.served_rounds = reference.rounds();
  reference.Advance();
  // Keep only the first round of the extra step: the one a pipelined
  // replay may announce ahead.
  rec.rounds.resize(rec.served_rounds + 1);
  rec.traffic_bytes = 0;
  for (const RecordedRound& rr : rec.rounds) {
    for (const auto& lane : rr.lanes) rec.traffic_bytes += lane.size();
  }
  return rec;
}

}  // namespace replaybench
