#include "service/stream_server.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ldpids::service {

StreamServer::StreamServer(std::size_t num_threads)
    : num_threads_(num_threads) {
  if (num_threads_ == 0) {
    throw std::invalid_argument("server needs at least one thread");
  }
}

StreamServer::~StreamServer() = default;

void StreamServer::AttachMetrics(obs::MetricsRegistry* registry) {
  sessions_gauge_ = &registry->GetGauge("ldpids_server_sessions");
  advances_counter_ = &registry->GetCounter("ldpids_server_advances_total");
  advance_hist_ =
      &registry->GetHistogram("ldpids_server_advance_duration_ns");
  fleet_feed_ = std::make_unique<obs::StatsFeed<IngestStats>>(
      registry, obs::Labels{{"scope", "fleet"}});
  sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
}

std::size_t StreamServer::AddSession(
    std::string name, std::unique_ptr<MechanismSession> session) {
  if (session == nullptr) {
    throw std::invalid_argument("null session");
  }
  names_.push_back(std::move(name));
  sessions_.push_back(std::move(session));
  if (sessions_gauge_ != nullptr) {
    sessions_gauge_->Set(static_cast<int64_t>(sessions_.size()));
  }
  return sessions_.size() - 1;
}

std::vector<StepResult> StreamServer::AdvanceAll() {
  std::vector<StepResult> releases(sessions_.size());
  const uint64_t t0 = advance_hist_ != nullptr ? obs::NowNs() : 0;
  ParallelFor(num_threads_, sessions_.size(), [&](std::size_t i) {
    releases[i] = sessions_[i]->Advance();
  });
  if (advance_hist_ != nullptr) {
    advance_hist_->Observe(obs::NowNs() - t0);
    advances_counter_->Add(sessions_.size());
    // Fleet rollup: the sum of every session's cumulative acceptance
    // accounting, published as a delta against the last sweep.
    IngestStats fleet;
    for (const auto& session : sessions_) fleet += session->stats();
    fleet_feed_->Publish(fleet);
  }
  return releases;
}

}  // namespace ldpids::service
