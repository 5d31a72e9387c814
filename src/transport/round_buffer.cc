#include "transport/round_buffer.h"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "service/ingest.h"
#include "util/rng.h"
#include "util/u64_set.h"

namespace ldpids::transport {

const char* DeliverResultName(DeliverResult result) {
  switch (result) {
    case DeliverResult::kBuffered: return "buffered";
    case DeliverResult::kEndMarker: return "end marker";
    case DeliverResult::kClosedRound: return "closed round";
    case DeliverResult::kTooLate: return "too late";
    case DeliverResult::kTooEarly: return "too early";
  }
  return "?";
}

uint64_t PacketIdentity(const uint8_t* data, std::size_t size) {
  uint64_t nonce = 0;
  if (PeekWireNonce(data, size, &nonce)) {
    // Well-formed envelope prefix: the user nonce is the packet's logical
    // identity (retransmitted copies share it even if other bytes were
    // corrupted in one copy).
    return nonce;
  }
  uint64_t node_id = 0;
  if (PeekPartialSketchNodeId(data, size, &node_id)) {
    // Partial-sketch payload: the emitting aggregator is the identity, so
    // a node's re-sent partial counts once toward completion while two
    // nodes' byte-identical partials (e.g. zero-report rounds) stay
    // distinct. Mix the id so small node indexes cannot collide with small
    // user nonces in a buffer that sees both kinds.
    return Mix64(node_id);
  }
  // Too mangled to carry a nonce: fall back to the raw bytes (FNV-1a).
  // Byte-identical re-deliveries still collapse; distinct corrupted
  // packets stay distinct.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ull;
  }
  return hash;
}

namespace {

// The calling thread's staging lane index, assigned round-robin at the
// thread's first delivery and shared by every RoundBuffer, so connection
// churn never grows per-buffer state.
std::size_t ThisThreadLane(std::size_t lanes) {
  static std::atomic<std::size_t> next_thread{0};
  thread_local const std::size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return index % lanes;
}

void RaiseTo(std::atomic<uint64_t>& watermark, uint64_t value) {
  uint64_t current = watermark.load(std::memory_order_relaxed);
  while (value > current &&
         !watermark.compare_exchange_weak(current, value)) {
  }
}

}  // namespace

RoundBuffer::RoundBuffer(RoundBufferOptions options) : options_(options) {}

void RoundBuffer::AttachMetrics(obs::MetricsRegistry* registry,
                                const std::string& label) {
  obs::Labels labels;
  if (!label.empty()) labels.emplace_back("session", label);
  std::lock_guard<std::mutex> lock(mu_);
  metrics_feed_ =
      std::make_unique<obs::StatsFeed<RoundBufferStats>>(registry, labels);
  pending_gauge_ =
      &registry->GetGauge("ldpids_roundbuf_pending_rounds", labels);
}

bool RoundBuffer::TryStage(uint64_t round, uint64_t identity,
                           PayloadRef& payload) {
  const std::size_t index = ThisThreadLane(kLanes);
  Lane& lane = lanes_[index];
  std::lock_guard<std::mutex> lock(lane.mu);
  // Flag the lane before reading the watermarks (all seq_cst): a merge
  // that clears this flag after our read collects this frame, one that
  // cleared it before follows the watermark store it merges for — a drain
  // or a marker — so the reads below see that store.
  if (lane.frames.empty()) staged_lanes_.fetch_or(uint32_t{1} << index);
  if (round < marker_floor_.load() ||
      Watermark(round) != DeliverResult::kBuffered) {
    return false;
  }
  RaiseTo(newest_round_, round);
  lane.frames.push_back({round, identity, std::move(payload)});
  return true;
}

DeliverResult RoundBuffer::Watermark(uint64_t round) const {
  const uint64_t next = next_round_.load();
  if (round < next) return DeliverResult::kClosedRound;
  if (round + options_.max_lateness < newest_round_.load()) {
    return DeliverResult::kTooLate;
  }
  if (round >= next + options_.max_buffered_rounds) {
    return DeliverResult::kTooEarly;
  }
  return DeliverResult::kBuffered;
}

DeliverResult RoundBuffer::AdmitLocked(uint64_t round) {
  const DeliverResult verdict = Watermark(round);
  switch (verdict) {
    case DeliverResult::kClosedRound: ++stats_.closed_round_drops; break;
    case DeliverResult::kTooLate: ++stats_.too_late_drops; break;
    case DeliverResult::kTooEarly: ++stats_.too_early_drops; break;
    default:
      // Only an *admitted* frame advances the lateness clock — a single
      // forged far-future round index must not poison the watermark and
      // starve every legitimate round behind it.
      RaiseTo(newest_round_, round);
  }
  return verdict;
}

RoundBuffer::PendingRound& RoundBuffer::BufferLocked(
    uint64_t round, uint64_t identity, PayloadRef&& payload) const {
  PendingRound& pending = pending_[round];
  if (!pending.identities.Insert(identity)) ++stats_.duplicate_frames;
  // Duplicates are still buffered — the ingest edge owns exact per-round
  // duplicate rejection (by nonce) and its acceptance accounting — but
  // only the first copy advanced the completion count above.
  pending.packets.push_back(std::move(payload));
  ++stats_.buffered;
  return pending;
}

void RoundBuffer::MergeLocked() const {
  if (staged_lanes_.load() == 0) return;
  uint32_t staged = staged_lanes_.exchange(0);
  while (staged != 0) {
    Lane& lane = lanes_[std::countr_zero(staged)];
    staged &= staged - 1;
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      merge_scratch_.swap(lane.frames);
    }
    for (Staged& frame : merge_scratch_) {
      BufferLocked(frame.round, frame.identity, std::move(frame.payload));
    }
    merge_scratch_.clear();
  }
}

DeliverResult RoundBuffer::Deliver(Frame&& frame) {
  const uint64_t round = frame.timestamp;
  if (frame.kind != FrameKind::kEndRound) {
    // The identity depends only on the frame bytes: hash before any lock.
    const uint64_t identity =
        PacketIdentity(frame.payload.data(), frame.payload.size());
    if (TryStage(round, identity, frame.payload)) {
      return DeliverResult::kBuffered;
    }
    std::lock_guard<std::mutex> lock(mu_);
    MergeLocked();
    const DeliverResult admitted = AdmitLocked(round);
    if (admitted != DeliverResult::kBuffered) return admitted;
    if (Complete(BufferLocked(round, identity, std::move(frame.payload)))) {
      complete_cv_.notify_all();
    }
    return DeliverResult::kBuffered;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const DeliverResult admitted = AdmitLocked(round);
  if (admitted != DeliverResult::kBuffered) return admitted;
  // Raise the staging floor, then merge what was staged before it rose:
  // from here on the round's frames all arrive under mu_.
  RaiseTo(marker_floor_, round + 1);
  MergeLocked();
  ++stats_.end_markers;
  PendingRound& pending = pending_[round];
  if (!pending.marker_seen) {
    pending.marker_seen = true;
    pending.expected = EndRoundExpected(frame);
  }
  if (Complete(pending)) complete_cv_.notify_all();
  return DeliverResult::kEndMarker;
}

std::vector<PayloadRef> RoundBuffer::TakeRound(uint64_t round) {
  std::unique_lock<std::mutex> lock(mu_);
  if (round != next_round_.load()) {
    throw std::logic_error("rounds must be taken strictly in order");
  }
  // Staged frames never complete a round (see the thread model), so the
  // predicate needs no merge.
  const bool complete = complete_cv_.wait_for(
      lock, options_.round_deadline,
      [&] { return Complete(pending_[round]); });
  // Close the round before the final merge: a frame racing this drain was
  // either staged before the store (and merges now) or reads the round as
  // closed and becomes a counted kClosedRound drop.
  next_round_.store(round + 1);
  MergeLocked();
  PendingRound& p = pending_[round];
  if (!complete) {
    ++stats_.deadline_flushes;
    if (p.marker_seen && p.packets.size() >= p.expected) {
      // Raw arrivals reached the announced count but distinct ones did
      // not: a duplicate masked a genuine loss. The pre-distinct
      // accounting released this round as "complete".
      ++stats_.masked_losses;
    }
  }
  std::vector<PayloadRef> packets = std::move(p.packets);
  pending_.erase(round);
  ++stats_.rounds_drained;
  stats_.packets_drained += packets.size();
  if (metrics_feed_ != nullptr) {
    // Once per drained round, still under mu_: per-frame delivery stays
    // untouched and only the draining side pays the publication.
    metrics_feed_->Publish(stats_);
    pending_gauge_->Set(static_cast<int64_t>(pending_.size()));
  }
  return packets;
}

uint64_t RoundBuffer::next_round() const { return next_round_.load(); }

std::size_t RoundBuffer::pending_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked();
  return pending_.size();
}

RoundBufferStats RoundBuffer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MergeLocked();
  return stats_;
}

void FrameDemux::Register(uint64_t session_id, RoundBuffer* buffer) {
  if (buffer == nullptr) {
    throw std::invalid_argument("demux needs a buffer");
  }
  std::lock_guard<std::mutex> lock(register_mu_);
  const std::size_t n = num_routes_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n; ++i) {
    if (routes_[i].session_id == session_id) {
      throw std::invalid_argument("session id already registered");
    }
  }
  if (n == kMaxSessions) {
    throw std::length_error("demux session table is full");
  }
  routes_[n] = {session_id, buffer};
  num_routes_.store(n + 1, std::memory_order_release);
}

void FrameDemux::Deliver(Frame&& frame) {
  const std::size_t n = num_routes_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    if (routes_[i].session_id == frame.session_id) {
      routes_[i].buffer->Deliver(std::move(frame));
      return;
    }
  }
  unknown_session_drops_.fetch_add(1, std::memory_order_relaxed);
}

FrameHandler FrameDemux::Handler() {
  return [this](Frame&& frame) { Deliver(std::move(frame)); };
}

uint64_t FrameDemux::unknown_session_drops() const {
  return unknown_session_drops_.load(std::memory_order_relaxed);
}

service::RoundTransport MakeBufferedTransport(RoundBuffer& buffer,
                                              AnnounceFn announce,
                                              std::size_t num_threads) {
  return [&buffer, announce = std::move(announce), num_threads](
             const service::RoundRequest& request,
             service::ReportRouter& router) {
    if (announce) announce(request);
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
}

service::SplitRoundTransport MakeBufferedSplitTransport(
    RoundBuffer& buffer, AnnounceFn announce, std::size_t num_threads) {
  service::SplitRoundTransport split;
  split.announce = std::move(announce);
  split.ingest = [&buffer, num_threads](const service::RoundRequest& request,
                                        service::ReportRouter& router) {
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
  return split;
}

void SendRoundFrames(FrameSender& sender, uint64_t session_id,
                     uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  SendRoundFrames(std::vector<FrameSender*>{&sender}, session_id, round,
                  packets);
}

void SendRoundFrames(const std::vector<FrameSender*>& senders,
                     uint64_t session_id, uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  if (senders.empty()) {
    throw std::invalid_argument("SendRoundFrames needs at least one sender");
  }
  for (FrameSender* sender : senders) {
    if (sender == nullptr) {
      throw std::invalid_argument("SendRoundFrames got a null sender");
    }
  }
  U64Set identities;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::vector<uint8_t>& packet = packets[i];
    identities.Insert(PacketIdentity(packet.data(), packet.size()));
    senders[i % senders.size()]->Send(
        MakeDataFrame(session_id, round, packet));
  }
  // Every connection is flushed before the single whole-round marker goes
  // out on senders[0]. The marker could legally race data still in flight
  // on other connections — the RoundBuffer waits for the announced count
  // regardless of arrival order — but flushing first keeps the common case
  // "marker last", so deadline flushes only happen on real loss.
  for (FrameSender* sender : senders) sender->Flush();
  senders[0]->Send(
      MakeEndRoundFrame(session_id, round, identities.size()));
  senders[0]->Flush();
}

void SendPartialSketch(FrameSender& sender, uint64_t session_id,
                       uint64_t round, std::vector<uint8_t> payload) {
  sender.Send(MakePartialSketchFrame(session_id, round, std::move(payload)));
  sender.Flush();
}

}  // namespace ldpids::transport
