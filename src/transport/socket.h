// Loopback/TCP socket transport for frame streams (POSIX sockets).
//
// `SocketListener` is the server edge: it binds a TCP port (0 picks an
// ephemeral one), accepts connections on a background thread, runs one
// reader thread per connection, and pushes every decoded frame into the
// caller's FrameHandler. Each connection gets its own FrameDecoder, so
// split/merged reads and mid-stream corruption degrade to typed per-reason
// stats, never a crash — the same defensive posture as the wire decoders
// one layer down.
//
// `SocketClient` is the device edge: it connects and sends frames through
// a batching buffer (one send(2) per ~flush_bytes, not per report — at
// ~50 B per frame, syscall-per-frame would dominate the protocol cost).
//
// Threading: the handler runs on listener-owned reader threads. It must
// synchronize internally (RoundBuffer and FrameDemux do). Stop() — and the
// destructor — closes the sockets and joins every thread.
#ifndef LDPIDS_TRANSPORT_SOCKET_H_
#define LDPIDS_TRANSPORT_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "transport/frame.h"

namespace ldpids::transport {

class SocketListener {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral; see port()) and starts
  // accepting. Throws std::runtime_error on socket/bind/listen failure.
  SocketListener(uint16_t port, FrameHandler handler);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  // Observability (optional): publishes each recv drain's decoder stats
  // delta to the canonical ldpids_frame_* metrics (live connections show
  // before they close) and records the drain's decode+deliver time into
  // the frame_decode stage histogram, labeled
  // {session=label} when `label` is non-empty. Attach before clients
  // connect — a reader started earlier keeps running uninstrumented.
  // Registry must outlive the listener.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& label = {});

  // Stops accepting, closes every connection and joins all threads.
  // Frames already buffered in a connection's decoder are delivered first.
  void Stop();

  uint16_t port() const { return port_; }
  // Decode accounting summed over every *closed* connection (a live
  // connection's decoder folds in when it closes); call after Stop() for
  // the full picture.
  FrameStats stats() const;
  // Per-connection decode accounting, one entry per closed connection in
  // close order; stats() is their FrameStats::operator+= sum.
  std::vector<FrameStats> connection_stats() const;
  uint64_t connections() const;

 private:
  void AcceptLoop();
  void ReadLoop(int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  FrameHandler handler_;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  bool stopping_ = false;
  std::vector<std::thread> readers_;
  std::vector<int> reader_fds_;
  FrameStats stats_;
  std::vector<FrameStats> connection_stats_;
  uint64_t connections_ = 0;
  // Observability (null until AttachMetrics). Both are latched by each
  // reader at connection start and written from reader threads (Observe
  // and StatsFeed::Add are lock-free).
  obs::Histogram* decode_hist_ = nullptr;
  std::unique_ptr<obs::StatsFeed<FrameStats>> metrics_feed_;
};

class SocketClient : public FrameSender {
 public:
  // Connects to 127.0.0.1:`port`. Throws std::runtime_error on failure.
  explicit SocketClient(uint16_t port, std::size_t flush_bytes = 64 * 1024);
  ~SocketClient() override;

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  void Send(const Frame& frame) override;
  void Flush() override;
  // Flushes and closes the connection; further Send calls throw.
  void Close();

  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  std::size_t flush_bytes_;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
};

}  // namespace ldpids::transport

#endif  // LDPIDS_TRANSPORT_SOCKET_H_
