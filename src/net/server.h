// Epoll-based fleet dispatch server: the daemon side of the framed wire
// protocol (net/frame.h).
//
// One event-loop thread owns every socket: it accepts connections,
// decodes frames, completes handshakes, flushes write queues, and reaps
// idle peers. Engine worker threads call Deliver(), which applies the
// per-delivery fault process, queues one kDispatch frame on the target
// device's connection (blocking briefly under write-queue backpressure),
// and waits for the matching kDelivered echo or a deadline.
//
// Connection state machine (per socket):
//
//   accepted --kHello--> handshaken --kDispatch/kDelivered pairs--> ...
//       |                     |
//       +--- idle timeout ----+--- EOF / error / idle ---> closed
//
// A frame the decoder cannot validate is skipped (resync) and counted;
// it never tears the connection down. Every counter and latency lands
// on the process-wide obs::MetricsRegistry under the net_* family.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.h"
#include "net/transport.h"
#include "support/status.h"

namespace eric::net {

/// FleetServer tuning knobs. The defaults suit tests and the daemon; a
/// zero timeout disables the corresponding reaper.
struct FleetServerConfig {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back
  /// from port() after Start()).
  uint16_t port = 0;
  /// How long Deliver() waits for the device's kDelivered echo before
  /// failing the attempt with kTimeout.
  uint32_t response_timeout_ms = 10'000;
  /// Connections with no inbound traffic for this long are closed
  /// (0 = never reap idle connections).
  uint32_t idle_timeout_ms = 0;
  /// Per-connection write-queue high-water mark, bytes. A Deliver()
  /// finding the queue at or above this blocks (backpressure) until
  /// the loop drains it below half the mark.
  size_t write_high_water = 8u * 1024 * 1024;
  /// How long a Deliver() may stall on backpressure before failing the
  /// attempt with kResourceExhausted.
  uint32_t backpressure_timeout_ms = 10'000;
  /// listen(2) backlog for the accept socket.
  int listen_backlog = 1024;
};

/// The epoll fleet server. Thread-safe: Deliver() may be called from
/// any number of engine workers concurrently (one in-flight dispatch
/// per device at a time; a second caller for the same device queues
/// behind the first).
class FleetServer : public DeliveryTransport {
 public:
  /// Builds a stopped server with `config`'s tuning.
  explicit FleetServer(const FleetServerConfig& config = {});
  /// Stops the loop and closes every socket.
  ~FleetServer() override;

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Binds, listens, and starts the event-loop thread. Raises the
  /// process fd limit if the soft RLIMIT_NOFILE is too small for a
  /// large fleet.
  Status Start();

  /// Stops the event loop, fails every in-flight delivery with
  /// kUnavailable, and closes all sockets. Idempotent.
  void Stop();

  /// The bound TCP port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Number of connections that have completed the kHello handshake.
  size_t connected_devices() const;

  /// Blocks until at least `count` devices are handshaken or
  /// `timeout_ms` elapses; returns whether the count was reached.
  bool WaitForDevices(size_t count, uint32_t timeout_ms) const;

  /// Delivers `wire_bytes` to `device` over its connection: applies the
  /// `fault` process at the sending edge (so wire fault injection is
  /// deterministic in the campaign seed), frames the result, queues it
  /// under the backpressure contract, and waits for the device's
  /// kDelivered echo. See DeliveryTransport::Deliver.
  Result<std::vector<uint8_t>> Deliver(uint64_t device,
                                       std::span<const uint8_t> wire_bytes,
                                       const ChannelConfig& fault) override;

 private:
  struct Connection;
  struct PendingDelivery;

  void LoopMain();
  void AcceptReady();
  void ReadReady(int fd);
  void WriteReady(int fd);
  void HandleFrame(int fd, Frame frame);
  void CloseConnection(int fd, const char* why);
  void FlushDirty();
  void ReapIdle();
  /// Queues `frame_bytes` on `fd`'s write queue and arms the loop.
  /// Caller holds state_mutex_.
  void EnqueueLocked(int fd, std::vector<uint8_t> frame_bytes);
  /// Fails and detaches `fd`'s in-flight delivery, if any. Caller
  /// holds state_mutex_.
  void FailInflightLocked(int fd, ErrorCode code, const char* message);

  FleetServerConfig config_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};

  /// Guards everything below (connections, device index, queues).
  mutable std::mutex state_mutex_;
  /// Signaled when a handshake completes or a connection closes.
  mutable std::condition_variable handshake_cv_;
  /// Signaled when a write queue drains below low water or a
  /// connection's in-flight slot frees up.
  std::condition_variable drain_cv_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<uint64_t, int> device_to_fd_;
  /// Connections with freshly queued writes, to flush on wakeup.
  std::vector<int> dirty_;
  uint32_t next_seq_ = 1;
};

}  // namespace eric::net
