// Pins the metric series the whole serving stack exports: a socket-fed
// MechanismSession inside a StreamServer (with its RoundBuffer and
// SocketListener) and a two-child merge tree (AggregatorNodes feeding a
// RootSession) all register on one registry and serve a few rounds of
// hostile traffic. The test checks two things:
//   * the exact sorted (metric name, label set) series list, so renaming
//     or dropping a series is a visible golden change;
//   * every counter equals the stats-struct field it mirrors, so the
//     export can never drift from the structs the data plane keeps.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "service/aggregator.h"
#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "service/stream_server.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "transport/socket_util.h"

namespace ldpids {
namespace {

using obs::Labels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using service::AggregatorNode;
using service::AggregatorOptions;
using service::ClientFleet;
using service::IngestStats;
using service::MechanismSession;
using service::RootSession;
using service::RoundRequest;
using service::SessionOptions;
using service::StreamServer;
using transport::FrameStats;
using transport::RoundBuffer;
using transport::RoundBufferStats;

constexpr std::size_t kDomain = 10;
constexpr uint64_t kUsers = 200;
constexpr std::size_t kSteps = 4;
constexpr uint64_t kSocketSession = 0x50C;
constexpr uint64_t kRootSession = 0x2007;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig Config(const std::string& fo) {
  MechanismConfig c;
  c.epsilon = 1.0;
  c.window = 4;
  c.fo = fo;
  c.seed = 91;
  return c;
}

// Writes raw bytes over a fresh loopback connection, then closes it: the
// listener's decoder sees exactly these bytes, frame boundaries or not.
void SendRawConnection(uint16_t port, const std::vector<uint8_t>& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  transport::SendAll(fd, bytes.data(), bytes.size());
  ::close(fd);
}

// Every frame-level reject reason plus one well-formed frame for a
// session nobody registered.
std::vector<uint8_t> HostileBytes() {
  std::vector<uint8_t> out = {0x00, 0x13, 0x37};  // bad magic
  const std::vector<uint8_t> report = {1, 2, 3, 4, 5, 6};
  std::vector<uint8_t> frame =
      transport::EncodeFrame(transport::MakeDataFrame(7, 0, report));
  std::vector<uint8_t> bad = frame;
  bad.back() ^= 0xFF;  // checksum mismatch
  out.insert(out.end(), bad.begin(), bad.end());
  bad = frame;
  bad[2] = 9;  // bad version
  out.insert(out.end(), bad.begin(), bad.end());
  bad = frame;
  bad[3] = 7;  // bad kind
  out.insert(out.end(), bad.begin(), bad.end());
  bad = frame;
  bad[23] = 0x7F;  // payload length far above kMaxFramePayload
  out.insert(out.end(), bad.begin(), bad.end());
  transport::Frame control;
  control.kind = transport::FrameKind::kEndRound;
  control.payload = std::vector<uint8_t>{1, 2, 3};  // not 8 bytes
  const std::vector<uint8_t> bad_control = transport::EncodeFrame(control);
  out.insert(out.end(), bad_control.begin(), bad_control.end());
  out.insert(out.end(), frame.begin(), frame.end());  // unknown session
  return out;
}

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name,
                      const Labels& labels) {
  const obs::CounterSample* c = snap.FindCounter(name, labels);
  EXPECT_NE(c, nullptr) << name << "{" << obs::RenderLabels(labels) << "}";
  return c == nullptr ? ~uint64_t{0} : c->value;
}

int64_t GaugeValue(const MetricsSnapshot& snap, const std::string& name,
                   const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const obs::GaugeSample& g : snap.gauges) {
    if (g.name == name && g.labels == sorted) return g.value;
  }
  ADD_FAILURE() << name << "{" << obs::RenderLabels(labels) << "}";
  return -1;
}

Labels With(Labels labels, const char* key, const char* value) {
  labels.emplace_back(key, value);
  return labels;
}

void ExpectFrameCounters(const MetricsSnapshot& snap, const Labels& l,
                         const FrameStats& s) {
  EXPECT_EQ(CounterValue(snap, "ldpids_frame_frames_total", l), s.frames);
  EXPECT_EQ(CounterValue(snap, "ldpids_frame_data_frames_total", l),
            s.data_frames);
  EXPECT_EQ(CounterValue(snap, "ldpids_frame_end_round_frames_total", l),
            s.end_round_frames);
  EXPECT_EQ(
      CounterValue(snap, "ldpids_frame_partial_sketch_frames_total", l),
      s.partial_sketch_frames);
  EXPECT_EQ(CounterValue(snap, "ldpids_frame_bytes_total", l), s.bytes);
  EXPECT_EQ(CounterValue(snap, "ldpids_frame_skipped_bytes_total", l),
            s.skipped_bytes);
  const char* kErrors = "ldpids_frame_errors_total";
  EXPECT_EQ(CounterValue(snap, kErrors, With(l, "reason", "bad_magic")),
            s.bad_magic);
  EXPECT_EQ(CounterValue(snap, kErrors, With(l, "reason", "bad_version")),
            s.bad_version);
  EXPECT_EQ(CounterValue(snap, kErrors, With(l, "reason", "bad_kind")),
            s.bad_kind);
  EXPECT_EQ(CounterValue(snap, kErrors, With(l, "reason", "oversize")),
            s.oversize);
  EXPECT_EQ(
      CounterValue(snap, kErrors, With(l, "reason", "checksum_mismatch")),
      s.checksum_mismatch);
  EXPECT_EQ(CounterValue(snap, kErrors, With(l, "reason", "bad_control")),
            s.bad_control);
}

void ExpectRoundBufferCounters(const MetricsSnapshot& snap, const Labels& l,
                               const RoundBufferStats& s) {
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_buffered_total", l),
            s.buffered);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_end_markers_total", l),
            s.end_markers);
  const char* kDrops = "ldpids_roundbuf_drops_total";
  EXPECT_EQ(CounterValue(snap, kDrops, With(l, "reason", "closed_round")),
            s.closed_round_drops);
  EXPECT_EQ(CounterValue(snap, kDrops, With(l, "reason", "too_late")),
            s.too_late_drops);
  EXPECT_EQ(CounterValue(snap, kDrops, With(l, "reason", "too_early")),
            s.too_early_drops);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_rounds_drained_total", l),
            s.rounds_drained);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_packets_drained_total", l),
            s.packets_drained);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_deadline_flushes_total", l),
            s.deadline_flushes);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_duplicate_frames_total", l),
            s.duplicate_frames);
  EXPECT_EQ(CounterValue(snap, "ldpids_roundbuf_masked_losses_total", l),
            s.masked_losses);
}

void ExpectIngestCounters(const MetricsSnapshot& snap, const Labels& l,
                          const IngestStats& s) {
  const char* kReports = "ldpids_ingest_reports_total";
  EXPECT_EQ(CounterValue(snap, kReports, With(l, "result", "accepted")),
            s.accepted);
  EXPECT_EQ(CounterValue(snap, kReports, With(l, "result", "malformed")),
            s.malformed);
  EXPECT_EQ(CounterValue(snap, kReports, With(l, "result", "wrong_oracle")),
            s.wrong_oracle);
  EXPECT_EQ(
      CounterValue(snap, kReports, With(l, "result", "wrong_timestamp")),
      s.wrong_timestamp);
  EXPECT_EQ(CounterValue(snap, kReports, With(l, "result", "duplicate")),
            s.duplicate);
  EXPECT_EQ(
      CounterValue(snap, kReports, With(l, "result", "sketch_rejected")),
      s.sketch_rejected);
}

// The session keeps no cumulative ArenaDecodeStats, so the arena series
// are checked against the IngestStats they partition: batch ingest counts
// wire-level rejects at the arena only, and every decoded row ends up
// accepted, duplicate or sketch-rejected.
void ExpectArenaCounters(const MetricsSnapshot& snap, const Labels& l,
                         const IngestStats& s) {
  EXPECT_EQ(CounterValue(snap, "ldpids_arena_decoded_total", l),
            s.accepted + s.duplicate + s.sketch_rejected);
  const char* kRejects = "ldpids_arena_rejects_total";
  EXPECT_EQ(CounterValue(snap, kRejects, With(l, "reason", "malformed")),
            s.malformed);
  EXPECT_EQ(CounterValue(snap, kRejects, With(l, "reason", "wrong_oracle")),
            s.wrong_oracle);
  EXPECT_EQ(
      CounterValue(snap, kRejects, With(l, "reason", "wrong_timestamp")),
      s.wrong_timestamp);
  uint64_t wire_errors = 0;
  for (std::size_t e = 1; e < kWireErrorCount; ++e) {
    wire_errors += CounterValue(
        snap, "ldpids_arena_wire_errors_total",
        With(l, "reason", WireErrorName(static_cast<WireError>(e))));
  }
  EXPECT_EQ(wire_errors, s.malformed);
}

void ExpectSketchMergeCounters(const MetricsSnapshot& snap, const Labels& l,
                               const SketchMergeStats& s) {
  const char* kPartials = "ldpids_sketch_merge_partials_total";
  EXPECT_EQ(CounterValue(snap, kPartials, With(l, "result", "merged")),
            s.merged);
  EXPECT_EQ(CounterValue(snap, "ldpids_sketch_merge_users_total", l),
            s.users_merged);
  EXPECT_EQ(CounterValue(snap, kPartials, With(l, "result", "malformed")),
            s.malformed);
  EXPECT_EQ(CounterValue(snap, kPartials, With(l, "result", "wrong_oracle")),
            s.wrong_oracle);
  EXPECT_EQ(CounterValue(snap, kPartials, With(l, "result", "wrong_round")),
            s.wrong_round);
  EXPECT_EQ(
      CounterValue(snap, kPartials, With(l, "result", "params_mismatch")),
      s.params_mismatch);
  EXPECT_EQ(
      CounterValue(snap, kPartials, With(l, "result", "duplicate_node")),
      s.duplicate_node);
  EXPECT_EQ(CounterValue(snap, kPartials, With(l, "result", "missing")),
            s.missing);
}

std::vector<std::string> SeriesOf(const MetricsSnapshot& snap) {
  std::vector<std::string> series;
  for (const auto& c : snap.counters) {
    series.push_back("counter " + c.name + "{" + obs::RenderLabels(c.labels) +
                     "}");
  }
  for (const auto& g : snap.gauges) {
    series.push_back("gauge " + g.name + "{" + obs::RenderLabels(g.labels) +
                     "}");
  }
  for (const auto& h : snap.histograms) {
    series.push_back("histogram " + h.name + "{" +
                     obs::RenderLabels(h.labels) + "}");
  }
  std::sort(series.begin(), series.end());
  return series;
}

// Captured from the stack before the stats feeds became table-driven; the
// exported series must not change under refactoring.
const std::vector<std::string>& GoldenSeries() {
  static const std::vector<std::string> kSeries = {
      "counter ldpids_aggregator_partial_bytes_total{node=\"a0\"}",
      "counter ldpids_aggregator_partial_bytes_total{node=\"a1\"}",
      "counter ldpids_aggregator_partials_emitted_total{node=\"a0\"}",
      "counter ldpids_aggregator_partials_emitted_total{node=\"a1\"}",
      "counter ldpids_aggregator_rounds_total{node=\"a0\"}",
      "counter ldpids_aggregator_rounds_total{node=\"a1\"}",
      "counter ldpids_arena_decoded_total{session=\"root\"}",
      "counter ldpids_arena_decoded_total{session=\"sock\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"malformed\",session=\"root\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"malformed\",session=\"sock\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"wrong_oracle\",session=\"root\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"wrong_oracle\",session=\"sock\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"wrong_timestamp\",session=\"root\"}",
      "counter ldpids_arena_rejects_total"
      "{reason=\"wrong_timestamp\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"bad magic\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"bad magic\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"bad version\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"bad version\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"checksum mismatch\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"checksum mismatch\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"length mismatch\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"length mismatch\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"packet too short\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"packet too short\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"payload oracle mismatch\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"payload oracle mismatch\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"payload size mismatch\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"payload size mismatch\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"unknown oracle id\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"unknown oracle id\",session=\"sock\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"value outside domain\",session=\"root\"}",
      "counter ldpids_arena_wire_errors_total"
      "{reason=\"value outside domain\",session=\"sock\"}",
      "counter ldpids_frame_bytes_total{session=\"sock\"}",
      "counter ldpids_frame_data_frames_total{session=\"sock\"}",
      "counter ldpids_frame_end_round_frames_total{session=\"sock\"}",
      "counter ldpids_frame_errors_total"
      "{reason=\"bad_control\",session=\"sock\"}",
      "counter ldpids_frame_errors_total{reason=\"bad_kind\",session=\"sock\"}",
      "counter ldpids_frame_errors_total"
      "{reason=\"bad_magic\",session=\"sock\"}",
      "counter ldpids_frame_errors_total"
      "{reason=\"bad_version\",session=\"sock\"}",
      "counter ldpids_frame_errors_total"
      "{reason=\"checksum_mismatch\",session=\"sock\"}",
      "counter ldpids_frame_errors_total{reason=\"oversize\",session=\"sock\"}",
      "counter ldpids_frame_frames_total{session=\"sock\"}",
      "counter ldpids_frame_partial_sketch_frames_total{session=\"sock\"}",
      "counter ldpids_frame_skipped_bytes_total{session=\"sock\"}",
      "counter ldpids_ingest_reports_total{node=\"a0\",result=\"accepted\"}",
      "counter ldpids_ingest_reports_total{node=\"a0\",result=\"duplicate\"}",
      "counter ldpids_ingest_reports_total{node=\"a0\",result=\"malformed\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a0\",result=\"sketch_rejected\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a0\",result=\"wrong_oracle\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a0\",result=\"wrong_timestamp\"}",
      "counter ldpids_ingest_reports_total{node=\"a1\",result=\"accepted\"}",
      "counter ldpids_ingest_reports_total{node=\"a1\",result=\"duplicate\"}",
      "counter ldpids_ingest_reports_total{node=\"a1\",result=\"malformed\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a1\",result=\"sketch_rejected\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a1\",result=\"wrong_oracle\"}",
      "counter ldpids_ingest_reports_total"
      "{node=\"a1\",result=\"wrong_timestamp\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"accepted\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"accepted\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"accepted\",session=\"sock\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"duplicate\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"duplicate\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"duplicate\",session=\"sock\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"malformed\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"malformed\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"malformed\",session=\"sock\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"sketch_rejected\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"sketch_rejected\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"sketch_rejected\",session=\"sock\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_oracle\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_oracle\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_oracle\",session=\"sock\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_timestamp\",scope=\"fleet\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_timestamp\",session=\"root\"}",
      "counter ldpids_ingest_reports_total"
      "{result=\"wrong_timestamp\",session=\"sock\"}",
      "counter ldpids_roundbuf_buffered_total{session=\"root\"}",
      "counter ldpids_roundbuf_buffered_total{session=\"sock\"}",
      "counter ldpids_roundbuf_deadline_flushes_total{session=\"root\"}",
      "counter ldpids_roundbuf_deadline_flushes_total{session=\"sock\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"closed_round\",session=\"root\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"closed_round\",session=\"sock\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"too_early\",session=\"root\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"too_early\",session=\"sock\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"too_late\",session=\"root\"}",
      "counter ldpids_roundbuf_drops_total"
      "{reason=\"too_late\",session=\"sock\"}",
      "counter ldpids_roundbuf_duplicate_frames_total{session=\"root\"}",
      "counter ldpids_roundbuf_duplicate_frames_total{session=\"sock\"}",
      "counter ldpids_roundbuf_end_markers_total{session=\"root\"}",
      "counter ldpids_roundbuf_end_markers_total{session=\"sock\"}",
      "counter ldpids_roundbuf_masked_losses_total{session=\"root\"}",
      "counter ldpids_roundbuf_masked_losses_total{session=\"sock\"}",
      "counter ldpids_roundbuf_packets_drained_total{session=\"root\"}",
      "counter ldpids_roundbuf_packets_drained_total{session=\"sock\"}",
      "counter ldpids_roundbuf_rounds_drained_total{session=\"root\"}",
      "counter ldpids_roundbuf_rounds_drained_total{session=\"sock\"}",
      "counter ldpids_server_advances_total{}",
      "counter ldpids_session_advances_total{session=\"root\"}",
      "counter ldpids_session_advances_total{session=\"sock\"}",
      "counter ldpids_session_rounds_total{session=\"root\"}",
      "counter ldpids_session_rounds_total{session=\"sock\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"duplicate_node\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"malformed\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"merged\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"missing\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"params_mismatch\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"wrong_oracle\",session=\"root\"}",
      "counter ldpids_sketch_merge_partials_total"
      "{result=\"wrong_round\",session=\"root\"}",
      "counter ldpids_sketch_merge_users_total{session=\"root\"}",
      "gauge ldpids_roundbuf_pending_rounds{session=\"root\"}",
      "gauge ldpids_roundbuf_pending_rounds{session=\"sock\"}",
      "gauge ldpids_server_sessions{}",
      "gauge ldpids_session_info"
      "{fo=\"GRR\",mechanism=\"LBA\",pipeline=\"1\","
      "session=\"sock\",shards=\"2\"}",
      "gauge ldpids_session_info"
      "{fo=\"OUE\",mechanism=\"LBA\",pipeline=\"1\","
      "session=\"root\",shards=\"1\"}",
      "histogram ldpids_server_advance_duration_ns{}",
      "histogram ldpids_stage_duration_ns{session=\"root\",stage=\"announce\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"arena_decode\"}",
      "histogram ldpids_stage_duration_ns{session=\"root\",stage=\"estimate\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"frame_decode\"}",
      "histogram ldpids_stage_duration_ns{session=\"root\",stage=\"merge\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"post_process\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"shard_fold\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"sketch_merge\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"root\",stage=\"transport_rtt\"}",
      "histogram ldpids_stage_duration_ns{session=\"sock\",stage=\"announce\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"arena_decode\"}",
      "histogram ldpids_stage_duration_ns{session=\"sock\",stage=\"estimate\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"frame_decode\"}",
      "histogram ldpids_stage_duration_ns{session=\"sock\",stage=\"merge\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"post_process\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"shard_fold\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"sketch_merge\"}",
      "histogram ldpids_stage_duration_ns"
      "{session=\"sock\",stage=\"transport_rtt\"}",
  };
  return kSeries;
}

TEST(MetricsSeriesTest, WholeStackExportsPinnedSeriesMirroringItsStats) {
  MetricsRegistry registry;
  const ClientFleet fleet(kUsers, TruthValue, 4242);

  // Socket-fed session inside a StreamServer.
  RoundBuffer socket_buffer;
  socket_buffer.AttachMetrics(&registry, "sock");
  transport::FrameDemux demux;
  demux.Register(kSocketSession, &socket_buffer);
  transport::SocketListener listener(0, demux.Handler());
  listener.AttachMetrics(&registry, "sock");
  transport::SocketClient sender(listener.port());
  SendRawConnection(listener.port(), HostileBytes());

  std::vector<std::vector<uint8_t>> previous_round;
  auto socket_announce = [&](const RoundRequest& request) {
    auto packets = fleet.ProduceRound(request, 1);
    // Hostile traffic that still reaches the session: one corrupted
    // report, one duplicated report, one report for the wrong timestamp
    // and — from round 1 on — a straggler of the round already closed.
    std::vector<uint8_t> corrupted = packets[0];
    corrupted[corrupted.size() / 2] ^= 0x5A;
    packets.push_back(corrupted);
    packets.push_back(packets[1]);
    const std::vector<uint32_t> one_user = {3};
    RoundRequest stale = request;
    stale.timestamp = request.timestamp + 1;
    stale.cohort = &one_user;
    packets.push_back(fleet.ProduceRound(stale, 1)[0]);
    if (!previous_round.empty()) {
      sender.Send(transport::MakeDataFrame(
          kSocketSession, request.round_index - 1, previous_round[0]));
    }
    transport::SendRoundFrames(sender, kSocketSession, request.round_index,
                               packets);
    previous_round = std::move(packets);
  };
  SessionOptions socket_options;
  socket_options.num_shards = 2;
  socket_options.metrics = &registry;
  socket_options.metrics_label = "sock";
  StreamServer server(1);
  server.AttachMetrics(&registry);
  server.AddSession(
      "sock", std::make_unique<MechanismSession>(
                  CreateMechanism("LBA", Config("GRR"), kUsers), kDomain,
                  socket_options,
                  transport::MakeBufferedSplitTransport(
                      socket_buffer, socket_announce, 1)));

  // Merge tree: two aggregators feeding a root.
  RoundBuffer root_buffer;
  root_buffer.AttachMetrics(&registry, "root");
  const service::UserAssignment assign(2, kUsers);
  std::vector<std::unique_ptr<AggregatorNode>> children;
  for (uint64_t k = 0; k < 2; ++k) {
    AggregatorOptions options;
    options.node_id = 100 + k;
    options.metrics = &registry;
    options.metrics_label = "a" + std::to_string(k);
    children.push_back(std::make_unique<AggregatorNode>(
        GetFrequencyOracle("OUE"), OracleId::kOue, kDomain, options));
  }
  auto root_announce = [&](const RoundRequest& request) {
    const auto slices = request.cohort != nullptr
                            ? assign.Partition(*request.cohort)
                            : assign.PartitionAll();
    for (std::size_t k = 0; k < children.size(); ++k) {
      RoundRequest child_request = request;
      child_request.cohort = &slices[k];
      auto ingest = [&](const RoundRequest& req,
                        service::ReportRouter& router) {
        router.IngestBatch(fleet.ProduceRound(req, 1), 1);
      };
      const std::vector<uint8_t> partial =
          children[k]->RunRoundToPartial(child_request, ingest);
      root_buffer.Deliver(transport::MakePartialSketchFrame(
          kRootSession, request.round_index, partial));
      if (k == 0) {  // re-sent partial: a duplicate node at the root
        root_buffer.Deliver(transport::MakePartialSketchFrame(
            kRootSession, request.round_index, partial));
      }
    }
    root_buffer.Deliver(transport::MakePartialSketchFrame(
        kRootSession, request.round_index, std::vector<uint8_t>{9, 9, 9}));
  };
  SessionOptions root_options;
  root_options.metrics = &registry;
  root_options.metrics_label = "root";
  RootSession root(CreateMechanism("LBA", Config("OUE"), kUsers), kDomain,
                   root_options, 2, kRootSession, root_buffer,
                   root_announce);

  for (std::size_t t = 0; t < kSteps; ++t) {
    server.AdvanceAll();
    root.Advance();
  }
  sender.Close();
  listener.Stop();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(SeriesOf(snap), GoldenSeries()) << [&] {
    std::string all;
    for (const std::string& s : SeriesOf(snap)) all += "  \"" + s + "\",\n";
    return all;
  }();

  // The hostile traffic reached every reject path checked below.
  const FrameStats frames = listener.stats();
  EXPECT_GT(frames.errors(), 0u);
  const MechanismSession& socket_session = server.session(0);
  EXPECT_GT(socket_session.stats().malformed, 0u);
  EXPECT_GT(socket_session.stats().wrong_timestamp, 0u);
  EXPECT_GT(socket_buffer.stats().duplicate_frames, 0u);
  EXPECT_GT(socket_buffer.stats().closed_round_drops, 0u);
  EXPECT_GT(root.merge_stats().malformed, 0u);
  EXPECT_GT(root.merge_stats().duplicate_node, 0u);

  const Labels sock = {{"session", "sock"}};
  const Labels root_labels = {{"session", "root"}};
  ExpectFrameCounters(snap, sock, frames);
  ExpectRoundBufferCounters(snap, sock, socket_buffer.stats());
  ExpectRoundBufferCounters(snap, root_labels, root_buffer.stats());
  ExpectIngestCounters(snap, sock, socket_session.stats());
  ExpectArenaCounters(snap, sock, socket_session.stats());
  ExpectIngestCounters(snap, root_labels, root.session().stats());
  ExpectArenaCounters(snap, root_labels, IngestStats{});
  ExpectSketchMergeCounters(snap, root_labels, root.merge_stats());
  ExpectIngestCounters(snap, {{"scope", "fleet"}}, socket_session.stats());
  for (std::size_t k = 0; k < children.size(); ++k) {
    const Labels node = {{"node", "a" + std::to_string(k)}};
    const AggregatorNode& child = *children[k];
    ExpectIngestCounters(snap, node, child.stats());
    EXPECT_EQ(CounterValue(snap, "ldpids_aggregator_rounds_total", node),
              child.rounds());
    EXPECT_EQ(
        CounterValue(snap, "ldpids_aggregator_partials_emitted_total", node),
        child.rounds());
    EXPECT_EQ(
        CounterValue(snap, "ldpids_aggregator_partial_bytes_total", node),
        child.rounds() * EncodedPartialSketchSize(kDomain));
  }
  EXPECT_EQ(CounterValue(snap, "ldpids_session_rounds_total", sock),
            socket_session.rounds());
  EXPECT_EQ(CounterValue(snap, "ldpids_session_rounds_total", root_labels),
            root.session().rounds());
  EXPECT_EQ(CounterValue(snap, "ldpids_session_advances_total", sock),
            kSteps);
  EXPECT_EQ(CounterValue(snap, "ldpids_session_advances_total", root_labels),
            kSteps);
  EXPECT_EQ(CounterValue(snap, "ldpids_server_advances_total", {}), kSteps);
  EXPECT_EQ(GaugeValue(snap, "ldpids_server_sessions", {}), 1);
  EXPECT_EQ(GaugeValue(snap, "ldpids_roundbuf_pending_rounds", sock),
            static_cast<int64_t>(socket_buffer.pending_rounds()));
  EXPECT_EQ(GaugeValue(snap, "ldpids_roundbuf_pending_rounds", root_labels),
            static_cast<int64_t>(root_buffer.pending_rounds()));
}

}  // namespace
}  // namespace ldpids
