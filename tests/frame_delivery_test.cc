// Concurrent frame delivery checked from observed outputs only: what each
// Deliver call returned, what each TakeRound drained and what stats() and
// the metrics registry report — never the buffer's internals.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"

namespace ldpids {
namespace {

using transport::DeliverResult;
using transport::FrameDemux;
using transport::MakeDataFrame;
using transport::MakeEndRoundFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;

constexpr uint64_t kSession = 7;
constexpr uint64_t kOtherSession = 8;
constexpr uint64_t kUnknownSession = 99;

// A packet's bytes name its (round, index); byte-identical copies share a
// PacketIdentity. The leading byte is no wire magic, so identities come
// from the bytes' hash.
std::vector<uint8_t> Packet(uint64_t round, uint32_t index) {
  std::vector<uint8_t> bytes(13, 0xEE);
  for (int b = 0; b < 8; ++b) {
    bytes[1 + b] = static_cast<uint8_t>(round >> (8 * b));
  }
  for (int b = 0; b < 4; ++b) {
    bytes[9 + b] = static_cast<uint8_t>(index >> (8 * b));
  }
  return bytes;
}

std::pair<uint64_t, uint32_t> Decode(const PayloadRef& packet) {
  uint64_t round = 0;
  uint32_t index = 0;
  for (int b = 0; b < 8; ++b) {
    round |= uint64_t{packet.data()[1 + b]} << (8 * b);
  }
  for (int b = 0; b < 4; ++b) {
    index |= uint32_t{packet.data()[9 + b]} << (8 * b);
  }
  return {round, index};
}

TEST(FrameDeliveryStressTest, EveryBufferedFrameDrainsOnceByItsOwnRound) {
  constexpr int kThreads = 4;
  constexpr uint64_t kRounds = 300;
  constexpr uint32_t kPackets = 64;  // distinct packets per round

  RoundBufferOptions options;
  // Generous: a flush here means a lost frame, not a slow machine.
  options.round_deadline = std::chrono::seconds(10);
  RoundBuffer buffer(options);
  RoundBuffer other;  // a second route so the demux lookup scans
  FrameDemux demux;
  demux.Register(kOtherSession, &other);
  demux.Register(kSession, &buffer);
  const transport::FrameHandler handler = demux.Handler();

  // Per-thread observations, merged after the join.
  struct Observed {
    std::multiset<std::pair<uint64_t, uint32_t>> buffered;  // kBuffered copies
    std::map<DeliverResult, uint64_t> results;
    uint64_t delivered = 0;  // frames that reached `buffer`
    uint64_t duplicates = 0;  // buffered copies of an identity seen before
    uint64_t unknown = 0;
  };
  std::vector<Observed> observed(kThreads + 1);
  std::atomic<bool> abort{false};  // set when a round was flushed
  std::atomic<bool> done{false};   // set when the last round was drained

  auto deliver_to = [&buffer](Observed& seen, transport::Frame frame) {
    const bool data = frame.kind != transport::FrameKind::kEndRound;
    const auto key =
        data ? Decode(frame.payload) : std::pair<uint64_t, uint32_t>{};
    const DeliverResult result = buffer.Deliver(std::move(frame));
    ++seen.results[result];
    ++seen.delivered;
    if (result == DeliverResult::kBuffered) seen.buffered.insert(key);
    return result;
  };
  auto produce = [&](int t) {
    Observed& seen = observed[t];
    auto deliver = [&](transport::Frame frame) {
      return deliver_to(seen, std::move(frame));
    };
    for (uint64_t r = 0; r < kRounds; ++r) {
      // Stay within two rounds of the drain: stragglers then race
      // TakeRound instead of landing far behind live traffic.
      while (r > buffer.next_round() + 2) {
        if (abort.load()) return;
        std::this_thread::yield();
      }
      const bool marker_first = r % 2 == 0;
      const bool sends_marker = static_cast<int>(r % kThreads) == t;
      if (sends_marker && marker_first) {
        deliver(MakeEndRoundFrame(kSession, r, kPackets));
      }
      // A cross-thread duplicate of the packet the next thread owns, sent
      // before this thread's own share: the round cannot complete without
      // that share, so the copy is always buffered.
      const uint32_t dup = static_cast<uint32_t>((t + 1) % kThreads);
      deliver(MakeDataFrame(kSession, r, Packet(r, dup)));
      ++seen.duplicates;
      // This thread's share goes through the demux, interleaved with a
      // frame for a session nobody registered.
      for (uint32_t i = static_cast<uint32_t>(t); i < kPackets;
           i += kThreads) {
        handler(MakeDataFrame(kSession, r, Packet(r, i)));
        ++seen.delivered;
        seen.buffered.insert({r, i});
      }
      handler(MakeDataFrame(kUnknownSession, r, Packet(r, 0)));
      ++seen.unknown;
      if (sends_marker && !marker_first) {
        deliver(MakeEndRoundFrame(kSession, r, kPackets));
      }
      // Retransmitted stragglers racing this round's drain and the one
      // before it: a buffered copy is a duplicate, the rest closed-round
      // drops. (A *distinct* straggler would count toward completion and
      // could close the round before another thread's share arrived.)
      for (uint64_t late = r - std::min<uint64_t>(r, 1); late <= r; ++late) {
        const uint32_t own = static_cast<uint32_t>(t);
        if (deliver(MakeDataFrame(kSession, late, Packet(late, own))) ==
            DeliverResult::kBuffered) {
          ++seen.duplicates;
        }
      }
      // A repeated marker racing the drain every few rounds.
      if (r % 5 == 0 && static_cast<int>((r + 1) % kThreads) == t) {
        deliver(MakeEndRoundFrame(kSession, r, kPackets));
      }
    }
  };

  // A retransmitter hammering the round being drained with copies of its
  // packet 0, so frames keep landing while TakeRound closes the round.
  auto retransmit = [&] {
    Observed& seen = observed[kThreads];
    while (!done.load() && !abort.load()) {
      const uint64_t r = buffer.next_round();
      if (r >= kRounds) break;
      if (deliver_to(seen, MakeDataFrame(kSession, r, Packet(r, 0))) ==
          DeliverResult::kBuffered) {
        ++seen.duplicates;
      }
    }
  };

  std::multiset<std::pair<uint64_t, uint32_t>> drained;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) producers.emplace_back(produce, t);
  producers.emplace_back(retransmit);
  for (uint64_t r = 0; r < kRounds && !abort.load(); ++r) {
    for (const PayloadRef& packet : buffer.TakeRound(r)) {
      const auto key = Decode(packet);
      EXPECT_EQ(key.first, r) << "packet drained by a foreign round";
      drained.insert(key);
    }
    if (buffer.stats().deadline_flushes != 0) abort.store(true);
  }
  done.store(true);
  for (std::thread& producer : producers) producer.join();
  ASSERT_FALSE(abort.load()) << "a round missed frames and was flushed";

  std::multiset<std::pair<uint64_t, uint32_t>> buffered;
  std::map<DeliverResult, uint64_t> results;
  uint64_t delivered = 0;
  uint64_t duplicates = 0;
  uint64_t unknown = 0;
  for (const Observed& seen : observed) {
    buffered.insert(seen.buffered.begin(), seen.buffered.end());
    for (const auto& [result, n] : seen.results) results[result] += n;
    delivered += seen.delivered;
    duplicates += seen.duplicates;
    unknown += seen.unknown;
  }
  // Every frame targets a round that is drained, so a buffered one is
  // either in `drained` or was lost.
  EXPECT_EQ(drained, buffered);
  EXPECT_EQ(buffer.pending_rounds(), 0u);

  const transport::RoundBufferStats stats = buffer.stats();
  EXPECT_EQ(stats.total(), delivered);
  EXPECT_EQ(stats.buffered, buffered.size());
  EXPECT_EQ(stats.packets_drained, drained.size());
  EXPECT_EQ(stats.rounds_drained, kRounds);
  EXPECT_EQ(stats.duplicate_frames, duplicates);
  EXPECT_EQ(stats.end_markers, results[DeliverResult::kEndMarker]);
  EXPECT_EQ(stats.closed_round_drops, results[DeliverResult::kClosedRound]);
  EXPECT_EQ(stats.too_late_drops, results[DeliverResult::kTooLate]);
  EXPECT_EQ(stats.too_early_drops, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.masked_losses, 0u);
  EXPECT_EQ(demux.unknown_session_drops(), unknown);
  EXPECT_EQ(other.stats().total(), 0u);
}

TEST(FrameDeliveryStressTest, DemuxRegistrationStaysStrict) {
  RoundBuffer buffer;
  FrameDemux demux;
  EXPECT_THROW(demux.Register(1, nullptr), std::invalid_argument);
  demux.Register(1, &buffer);
  EXPECT_THROW(demux.Register(1, &buffer), std::invalid_argument);
  for (uint64_t id = 2; id <= FrameDemux::kMaxSessions; ++id) {
    demux.Register(id, &buffer);
  }
  EXPECT_THROW(demux.Register(FrameDemux::kMaxSessions + 1, &buffer),
               std::length_error);
  demux.Deliver(MakeDataFrame(FrameDemux::kMaxSessions, 0, {1}));
  demux.Deliver(MakeDataFrame(FrameDemux::kMaxSessions + 1, 0, {1}));
  EXPECT_EQ(buffer.stats().buffered, 1u);
  EXPECT_EQ(demux.unknown_session_drops(), 1u);
}

// A live connection's decode stats reach /metrics while it is still open,
// and the totals after it closes match the listener's own accounting.
TEST(SocketLiveStatsTest, MidConnectionScrapeSeesDecodedFrames) {
  constexpr uint64_t kFrames = 500;
  obs::MetricsRegistry registry;
  std::atomic<uint64_t> handled{0};
  transport::SocketListener listener(
      0, [&handled](transport::Frame&&) { handled.fetch_add(1); });
  listener.AttachMetrics(&registry, "live");
  const obs::Labels labels = {{"session", "live"}};
  auto scraped_frames = [&] {
    const obs::MetricsSnapshot snap = registry.Snapshot();
    const obs::CounterSample* sample =
        snap.FindCounter("ldpids_frame_frames_total", labels);
    return sample == nullptr ? uint64_t{0} : sample->value;
  };

  transport::SocketClient client(listener.port());
  for (uint64_t i = 0; i < kFrames; ++i) {
    client.Send(
        MakeDataFrame(kSession, 0, Packet(0, static_cast<uint32_t>(i))));
  }
  client.Flush();
  // The connection stays open: only a live publication can show these.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (scraped_frames() < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(scraped_frames(), 0u);
  EXPECT_EQ(scraped_frames(), kFrames);
  EXPECT_EQ(handled.load(), kFrames);
  EXPECT_EQ(listener.stats().frames, 0u);  // folds in only at close

  client.Close();
  listener.Stop();
  EXPECT_EQ(listener.stats().frames, kFrames);
  EXPECT_EQ(scraped_frames(), kFrames);  // no double count at close
  const obs::MetricsSnapshot snap = registry.Snapshot();
  const obs::CounterSample* bytes =
      snap.FindCounter("ldpids_frame_bytes_total", labels);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(bytes->value, listener.stats().bytes);
}

}  // namespace
}  // namespace ldpids
