#ifndef HISTWALK_RPC_CLIENT_H_
#define HISTWALK_RPC_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "api/sampler.h"
#include "obs/progress.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "util/socket.h"
#include "util/status.h"

// The client side of the wire protocol: a pipelined connection to a
// histwalk_serviced daemon, with one method per run-session RPC. A remote
// api::RunHandle is a session over these calls; the handle, not the
// client, caches outcomes and pins cancellation.
//
// Pipelining: every Call() gets a fresh correlation id, writes its frame,
// and parks on a condition variable until the connection's single reader
// thread routes the matching reply back — so any number of threads can
// have RPCs in flight on one connection, and a Wait blocked server-side
// for seconds never delays a concurrent Poll (the server executes them on
// separate workers).
//
// Deadlines: ClientOptions::rpc_timeout_ms bounds each Call. On expiry the
// caller gets Status::DeadlineExceeded and the pending slot is dropped, so
// the reply — if it ever lands — is discarded by the reader. Note the
// timeout applies to kWait like any other RPC: a walk that runs longer
// than the deadline surfaces as IsDeadlineExceeded, and the caller may
// simply Wait again (the server-side session is unaffected).
//
// A transport failure (server gone, protocol corruption) fails every
// pending and future Call with the same status; the connection is dead
// and a new Client must be dialed.

namespace histwalk::rpc {

struct ClientOptions {
  // Reported to the server in the handshake (shows up in daemon logs).
  std::string client_name = "histwalk_client";
  // Per-RPC deadline in milliseconds; 0 = wait forever.
  uint64_t rpc_timeout_ms = 0;
};

class Client {
 public:
  // Connects, performs the kHello/kHelloOk version handshake, and starts
  // the reply-reader thread. kUnavailable when the daemon is not there,
  // kFailedPrecondition on a protocol-version mismatch.
  static util::Result<std::shared_ptr<Client>> Connect(std::string_view host,
                                                       uint16_t port,
                                                       ClientOptions options);
  // Same, from a "host:port" endpoint string.
  static util::Result<std::shared_ptr<Client>> Dial(std::string_view endpoint,
                                                    ClientOptions options);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // One RPC: writes the request, blocks until the correlated reply lands,
  // the deadline expires (kDeadlineExceeded) or the connection dies
  // (kUnavailable). A kError reply decodes into its carried Status; a
  // reply of any other unexpected type is kDataLoss. On success, returns
  // the reply payload.
  util::Result<std::string> Call(MsgType type, std::string payload,
                                 MsgType expected_reply);

  // The run-session RPCs, one round trip each; errors are Call's.
  util::Result<uint64_t> Submit(const api::RunOptions& options);
  util::Result<api::RunState> Poll(uint64_t session);
  // Blocks (server-side) until the run ends.
  util::Result<api::RunReport> Wait(uint64_t session);
  // Non-blocking: kUnavailable while the run is still going.
  util::Result<api::RunReport> Report(uint64_t session);
  util::Result<obs::ProgressSnapshot> Progress(uint64_t session);
  // Cooperative: blocks (server-side) until the canceled walk ends.
  util::Status Cancel(uint64_t session);

  // The server's handshake-reported name.
  const std::string& server_name() const { return server_name_; }

 private:
  struct Pending {
    bool done = false;
    Frame reply;
    util::Status transport;  // non-OK: the connection died mid-call
  };

  Client() = default;
  void ReaderLoop();
  // Marks the connection broken and releases every parked caller.
  void FailAll(const util::Status& status);

  util::TcpStream stream_;
  ClientOptions options_;
  std::string server_name_;
  std::thread reader_;

  std::mutex write_mu_;  // one frame at a time on the wire

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_correlation_ = 1;
  std::map<uint64_t, std::shared_ptr<Pending>> pending_;
  bool broken_ = false;
  util::Status broken_status_;
};

}  // namespace histwalk::rpc

#endif  // HISTWALK_RPC_CLIENT_H_
