#ifndef HISTWALK_RPC_SERVER_H_
#define HISTWALK_RPC_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/sampler.h"
#include "obs/registry.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "util/socket.h"
#include "util/status.h"

// The daemon side of the wire protocol: an rpc::Server hosts one
// api::Sampler (histwalk_serviced builds it in service mode, so sessions
// from every connection share one HistoryCache and one fair pipeline)
// behind a multi-connection accept loop — the obs::TelemetryServer
// listener pattern, generalized from serve-one-GET-and-close to long-lived
// framed connections.
//
// Per connection:
//   * one reader thread pulls frames off the socket and enqueues them;
//   * a worker pool (options.max_inflight_requests threads) executes
//     requests concurrently, so a blocked Wait never stops Poll/Cancel
//     frames behind it from being answered — the pipelining contract;
//   * the reader stops reading while `max_inflight_requests` requests are
//     queued or executing. A client that keeps pushing past the window
//     backs up into TCP flow control instead of unbounded server memory —
//     the backpressure contract.
//
// Graceful drain: Shutdown() (and the destructor) stops accepting, then
// half-closes each connection's read side. Readers see end-of-stream,
// workers finish every request already accepted — replies still flush,
// because only the read side was shut — and each connection's surviving
// sessions are canceled so their admission slots and walker threads are
// reclaimed before the hosted sampler is torn down.
//
// Wire sessions are per-connection state: a session id returned to one
// connection is not addressable from another, and a connection's death
// cancels its sessions (a vanished client must not leak admission slots).

namespace histwalk::rpc {

struct ServerOptions {
  uint16_t port = 0;  // 0 = kernel-assigned; read the outcome from port()
  int backlog = 16;
  // Bounded in-flight request window per connection (clamped to >= 1):
  // the size of the worker pool and the reader's high-water mark.
  uint32_t max_inflight_requests = 8;
  // Reported in the handshake (and useful in logs).
  std::string server_name = "histwalk_serviced";
  // When set, a pull collector exports the hw_rpc_* family into this
  // registry (must outlive the server): connection/request/error counters,
  // in-flight gauges, and hw_rpc_admission_queue_depth — the number of
  // Submits currently queued behind the hosted service's session cap.
  obs::Registry* registry = nullptr;
};

struct ServerStats {
  uint64_t connections_total = 0;
  uint64_t connections_active = 0;
  uint64_t requests_total = 0;
  uint64_t requests_inflight = 0;
  uint64_t protocol_errors = 0;  // bad frames / unknown types / bad payloads
  uint64_t sessions_opened = 0;
  uint64_t sessions_reaped = 0;  // canceled because their connection died
};

class Server {
 public:
  // Binds 127.0.0.1:port and starts serving `sampler` (not owned; must
  // outlive the server). Loopback-only like the telemetry endpoint: the
  // protocol has no auth, so exposure stays an operator decision (ssh
  // tunnel, sidecar proxy).
  static util::Result<std::unique_ptr<Server>> Start(api::Sampler* sampler,
                                                     ServerOptions options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return listener_.port(); }
  ServerStats stats() const;

  // Graceful drain, idempotent; the destructor calls it.
  void Shutdown();

 private:
  struct Connection {
    // Closed under `mu`, where Shutdown() also reads its fd.
    util::TcpStream stream;
    std::mutex write_mu;  // one frame at a time on the wire
    std::thread reader;
    std::vector<std::thread> workers;

    std::mutex mu;
    std::condition_variable work_cv;   // workers: queue non-empty or closed
    std::condition_variable window_cv; // reader: in-flight below the window
    std::deque<Frame> queue;
    uint32_t inflight = 0;  // queued + executing
    bool closed = false;    // no more frames will be enqueued
    bool hello_done = false;
    std::map<uint64_t, api::RunHandle> sessions;
    uint64_t next_session = 1;
    bool finished = false;  // reader and workers have all exited
  };

  Server() = default;

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  void WorkerLoop(Connection* conn);
  void HandleRequest(Connection* conn, Frame request);
  void SendReply(Connection* conn, uint64_t correlation_id, MsgType type,
                 std::string payload);
  void SendError(Connection* conn, uint64_t correlation_id,
                 const util::Status& status);
  // Cancels every session the connection still holds (blocking until their
  // walks finish) — the reap that keeps a vanished client from leaking
  // admission slots.
  void ReapSessions(Connection* conn);
  void CollectSamples(std::vector<obs::Sample>& out) const;

  api::Sampler* sampler_ = nullptr;
  ServerOptions options_;
  util::TcpListener listener_;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_;
  bool shutdown_ = false;
  uint64_t connections_total_ = 0;
  uint64_t requests_total_ = 0;
  uint64_t protocol_errors_ = 0;
  uint64_t sessions_opened_ = 0;
  uint64_t sessions_reaped_ = 0;

  obs::Registry::CollectorHandle collector_;
};

}  // namespace histwalk::rpc

#endif  // HISTWALK_RPC_SERVER_H_
