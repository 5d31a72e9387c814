#include "transport/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/stage_trace.h"
#include "transport/socket_util.h"

namespace ldpids::transport {

SocketListener::SocketListener(uint16_t port, FrameHandler handler)
    : handler_(std::move(handler)) {
  if (!handler_) {
    throw std::invalid_argument("listener needs a frame handler");
  }
  listen_fd_ = BindLoopbackListener(port, &port_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

SocketListener::~SocketListener() { Stop(); }

void SocketListener::AttachMetrics(obs::MetricsRegistry* registry,
                                   const std::string& label) {
  obs::Labels labels{{"stage", obs::StageName(obs::Stage::kFrameDecode)}};
  obs::Labels feed_labels;
  if (!label.empty()) {
    labels.emplace_back("session", label);
    feed_labels.emplace_back("session", label);
  }
  std::lock_guard<std::mutex> lock(mu_);
  decode_hist_ =
      &registry->GetHistogram(obs::kStageDurationMetric, labels);
  metrics_feed_ =
      std::make_unique<obs::StatsFeed<FrameStats>>(registry, feed_labels);
}

void SocketListener::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or a fatal accept error)
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ++connections_;
    reader_fds_.push_back(fd);
    readers_.emplace_back([this, fd] { ReadLoop(fd); });
  }
}

void SocketListener::ReadLoop(int fd) {
  FrameDecoder decoder;
  Frame frame;
  constexpr std::size_t kChunk = 64 * 1024;
  // Latch the instruments once: the reader was minted under mu_, so an
  // AttachMetrics that happened-before this connection is visible here.
  obs::Histogram* decode_hist;
  obs::StatsFeed<FrameStats>* feed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    decode_hist = decode_hist_;
    feed = metrics_feed_.get();
  }
  FrameStats published;  // what this connection has added to `feed`
  for (;;) {
    // Zero-copy intake: recv straight into the decoder's pooled block; the
    // bytes are never staged in a side buffer, and decoded payloads alias
    // them in place all the way into the round buffer.
    const ssize_t n = ::recv(fd, decoder.Reserve(kChunk), kChunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or shutdown
    decoder.Commit(static_cast<std::size_t>(n));
    if (decode_hist != nullptr) {
      // One observation per recv drain: frame reassembly plus handler
      // delivery, the time the bytes spend on this reader thread.
      const uint64_t t0 = obs::NowNs();
      while (decoder.Next(&frame)) handler_(std::move(frame));
      decode_hist->Observe(obs::NowNs() - t0);
      // Each drain's decode stats go live, so a long-lived link shows in
      // /metrics before it closes.
      feed->Add(obs::CounterDelta(decoder.stats(), published));
      published = decoder.stats();
    } else {
      while (decoder.Next(&frame)) handler_(std::move(frame));
    }
  }
  {
    // Deregister before closing: once the fd is closed the kernel may
    // recycle its number, and Stop() must never shutdown() a stale entry.
    std::lock_guard<std::mutex> lock(mu_);
    stats_ += decoder.stats();
    connection_stats_.push_back(decoder.stats());
    for (int& reader_fd : reader_fds_) {
      if (reader_fd == fd) {
        reader_fd = -1;
        break;
      }
    }
  }
  ::close(fd);
}

void SocketListener::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped (Stop then destructor is the common sequence).
      if (!accept_thread_.joinable() && readers_.empty()) return;
    }
    stopping_ = true;
  }
  // Unblock accept(), then stop minting readers before touching them.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int fd : reader_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& reader : readers_) {
    if (reader.joinable()) reader.join();
  }
  readers_.clear();
  reader_fds_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

FrameStats SocketListener::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<FrameStats> SocketListener::connection_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connection_stats_;
}

uint64_t SocketListener::connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return connections_;
}

SocketClient::SocketClient(uint16_t port, std::size_t flush_bytes)
    : flush_bytes_(flush_bytes) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) ThrowErrno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    ThrowErrno("connect 127.0.0.1");
  }
  buffer_.reserve(flush_bytes_ + kMaxFramePayload);
}

SocketClient::~SocketClient() {
  try {
    Close();
  } catch (...) {
    // Destructor: the peer may already be gone; losing the tail of an
    // unflushed buffer on teardown is the caller's bug (call Close()).
  }
}

void SocketClient::Send(const Frame& frame) {
  if (fd_ < 0) throw std::logic_error("socket client already closed");
  const std::size_t before = buffer_.size();
  AppendEncodedFrame(frame, &buffer_);
  ++frames_sent_;
  bytes_sent_ += buffer_.size() - before;
  if (buffer_.size() >= flush_bytes_) Flush();
}

void SocketClient::Flush() {
  if (fd_ < 0 || buffer_.empty()) return;
  SendAll(fd_, buffer_.data(), buffer_.size());
  buffer_.clear();
}

void SocketClient::Close() {
  if (fd_ < 0) return;
  Flush();
  ::shutdown(fd_, SHUT_WR);  // EOF to the peer after the last frame
  ::close(fd_);
  fd_ = -1;
}

}  // namespace ldpids::transport
