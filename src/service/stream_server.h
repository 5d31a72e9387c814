// Multi-session serving front end: drives N independent mechanism sessions
// (one per monitored stream — e.g. one per metric, region or tenant) one
// timestamp at a time, fanning the session advances across the shared
// thread pool.
//
// Sessions are independent by construction — each owns its mechanism,
// transport and ingestion rounds — so AdvanceAll is embarrassingly
// parallel, and results are returned in session order regardless of which
// lane ran which session. Nested parallelism (a session's transport doing
// sharded IngestBatch inside a pool lane) degrades to inline execution in
// the pool, so it never deadlocks.
//
// Pipelined serving: sessions built with SessionOptions::pipeline_depth
// > 1 compose directly — each owns its ingest worker, so with N pipelined
// sessions the server overlaps round t+1 ingestion with round t
// estimation *within* every stream on top of the across-stream
// parallelism of AdvanceAll, and releases stay bit-identical to serial
// sessions (pinned in pipeline_test). Successive AdvanceAll calls may run
// one session on different pool lanes; that is safe because the pool's
// completion barrier orders them.
#ifndef LDPIDS_SERVICE_STREAM_SERVER_H_
#define LDPIDS_SERVICE_STREAM_SERVER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "service/session.h"

namespace ldpids::service {

class StreamServer {
 public:
  // `num_threads` pool lanes are used to advance sessions concurrently.
  explicit StreamServer(std::size_t num_threads);
  ~StreamServer();

  // Observability (optional): fleet-wide rollup on top of whatever the
  // individual sessions register (give them per-session metrics_labels in
  // SessionOptions). Exposes the ldpids_server_sessions gauge, the
  // ldpids_server_advances_total counter, a wall-clock histogram per
  // AdvanceAll sweep, and the fleet's summed ingest stats under
  // ldpids_ingest_reports_total{scope="fleet"} — a separate instance from
  // the per-session series, so nothing double-counts. Registry must
  // outlive the server.
  void AttachMetrics(obs::MetricsRegistry* registry);

  // Registers a session under `name`; returns its index. Sessions cannot
  // be removed (a stream, once public, keeps its release history).
  std::size_t AddSession(std::string name,
                         std::unique_ptr<MechanismSession> session);

  // Advances every session by one timestamp and returns the releases in
  // session order. The first exception thrown by any session propagates
  // after all lanes settle — the healthy sessions have then already
  // advanced, and the failing one is permanently failed (see
  // MechanismSession::Advance's failure semantics), so the caller's
  // recovery unit is replacing that session, never retrying AdvanceAll
  // wholesale.
  std::vector<StepResult> AdvanceAll();

  std::size_t num_sessions() const { return sessions_.size(); }
  const std::string& name(std::size_t i) const { return names_[i]; }
  const MechanismSession& session(std::size_t i) const {
    return *sessions_[i];
  }

 private:
  std::size_t num_threads_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<MechanismSession>> sessions_;
  // Observability (all null until AttachMetrics). Updated on the caller's
  // thread only — sessions advance on pool lanes, the rollup happens
  // after the completion barrier.
  obs::Gauge* sessions_gauge_ = nullptr;
  obs::Counter* advances_counter_ = nullptr;
  obs::Histogram* advance_hist_ = nullptr;
  std::unique_ptr<obs::StatsFeed<IngestStats>> fleet_feed_;
};

}  // namespace ldpids::service

#endif  // LDPIDS_SERVICE_STREAM_SERVER_H_
