#include "rpc/client.h"

#include <chrono>
#include <utility>

namespace histwalk::rpc {

// ---- Client -----------------------------------------------------------

util::Result<std::shared_ptr<Client>> Client::Dial(std::string_view endpoint,
                                                   ClientOptions options) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return util::Status::InvalidArgument("endpoint is not host:port: " +
                                         std::string(endpoint));
  }
  const std::string_view host = endpoint.substr(0, colon);
  const std::string port_text(endpoint.substr(colon + 1));
  uint32_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return util::Status::InvalidArgument("endpoint port is not a number: " +
                                           std::string(endpoint));
    }
    port = port * 10 + static_cast<uint32_t>(c - '0');
    if (port > 65535) {
      return util::Status::InvalidArgument("endpoint port out of range: " +
                                           std::string(endpoint));
    }
  }
  if (port == 0) {
    return util::Status::InvalidArgument("endpoint port must be nonzero: " +
                                         std::string(endpoint));
  }
  return Connect(host, static_cast<uint16_t>(port), std::move(options));
}

util::Result<std::shared_ptr<Client>> Client::Connect(std::string_view host,
                                                      uint16_t port,
                                                      ClientOptions options) {
  std::shared_ptr<Client> client(new Client());
  client->options_ = std::move(options);
  HW_ASSIGN_OR_RETURN(client->stream_, util::TcpStream::Connect(host, port));
  HW_RETURN_IF_ERROR(client->stream_.SetNoDelay());

  // Synchronous handshake before the reader thread exists: the first
  // frame each way is hello, so version skew is caught before any request
  // is accepted.
  HelloPayload hello;
  hello.peer_name = client->options_.client_name;
  Frame request;
  request.type = static_cast<uint16_t>(MsgType::kHello);
  request.correlation_id = 0;
  request.payload = EncodeHello(hello);
  HW_RETURN_IF_ERROR(WriteFrame(client->stream_, request));
  Frame reply;
  util::Status read = ReadFrame(client->stream_, &reply);
  if (!read.ok()) {
    if (read.code() == util::StatusCode::kNotFound) {
      return util::Status::Unavailable(
          "server closed the connection during the handshake");
    }
    return read;
  }
  if (reply.type == static_cast<uint16_t>(MsgType::kError)) {
    util::Status refusal;
    HW_RETURN_IF_ERROR(DecodeStatusPayload(reply.payload, &refusal));
    return refusal;
  }
  if (reply.type != static_cast<uint16_t>(MsgType::kHelloOk)) {
    return util::Status::DataLoss("handshake reply is not hello_ok (type " +
                                  std::to_string(reply.type) + ")");
  }
  HW_ASSIGN_OR_RETURN(HelloPayload server_hello, DecodeHello(reply.payload));
  if (server_hello.version != kProtocolVersion) {
    return util::Status::FailedPrecondition(
        "protocol version mismatch: server speaks " +
        std::to_string(server_hello.version) + ", client speaks " +
        std::to_string(kProtocolVersion));
  }
  client->server_name_ = std::move(server_hello.peer_name);

  client->reader_ = std::thread([raw = client.get()] { raw->ReaderLoop(); });
  return client;
}

Client::~Client() {
  // Wake the reader out of its blocked recv; it fails all pending (there
  // should be none — Calls hold a reference path to the client) and exits.
  stream_.ShutdownBoth();
  if (reader_.joinable()) reader_.join();
}

void Client::FailAll(const util::Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  broken_ = true;
  broken_status_ = status;
  for (auto& [corr, pending] : pending_) {
    pending->transport = status;
    pending->done = true;
  }
  pending_.clear();
  cv_.notify_all();
}

void Client::ReaderLoop() {
  while (true) {
    Frame frame;
    util::Status status = ReadFrame(stream_, &frame);
    if (!status.ok()) {
      FailAll(status.code() == util::StatusCode::kNotFound
                  ? util::Status::Unavailable("server closed the connection")
                  : status);
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(frame.correlation_id);
    // Unmatched correlation id: the reply to a Call that already timed
    // out (or a server bug). Either way nobody is listening — drop it.
    if (it == pending_.end()) continue;
    it->second->reply = std::move(frame);
    it->second->done = true;
    pending_.erase(it);
    cv_.notify_all();
  }
}

util::Result<std::string> Client::Call(MsgType type, std::string payload,
                                       MsgType expected_reply) {
  auto pending = std::make_shared<Pending>();
  uint64_t corr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (broken_) return broken_status_;
    corr = next_correlation_++;
    pending_.emplace(corr, pending);
  }

  Frame request;
  request.type = static_cast<uint16_t>(type);
  request.correlation_id = corr;
  request.payload = std::move(payload);
  util::Status wrote;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    wrote = WriteFrame(stream_, request);
  }
  if (!wrote.ok()) {
    // The write side is dead; the reader will notice too, but this caller
    // must not park forever waiting for a reply that cannot come.
    FailAll(wrote);
    return wrote;
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (options_.rpc_timeout_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.rpc_timeout_ms);
    if (!cv_.wait_until(lock, deadline, [&] { return pending->done; })) {
      // Abandon the slot; the reader drops the late reply when it lands.
      pending_.erase(corr);
      return util::Status::DeadlineExceeded(
          std::string(MsgTypeName(type)) + " rpc timed out after " +
          std::to_string(options_.rpc_timeout_ms) + "ms");
    }
  } else {
    cv_.wait(lock, [&] { return pending->done; });
  }
  if (!pending->transport.ok()) return pending->transport;
  if (pending->reply.type == static_cast<uint16_t>(MsgType::kError)) {
    util::Status remote;
    HW_RETURN_IF_ERROR(
        DecodeStatusPayload(pending->reply.payload, &remote));
    return remote;
  }
  if (pending->reply.type != static_cast<uint16_t>(expected_reply)) {
    return util::Status::DataLoss(
        "unexpected reply type " + std::to_string(pending->reply.type) +
        " to a " + std::string(MsgTypeName(type)) + " rpc");
  }
  return std::move(pending->reply.payload);
}

// ---- run-session RPCs -------------------------------------------------

util::Result<uint64_t> Client::Submit(const api::RunOptions& options) {
  HW_ASSIGN_OR_RETURN(std::string payload, EncodeRunOptions(options));
  HW_ASSIGN_OR_RETURN(std::string reply, Call(MsgType::kSubmit,
                                              std::move(payload),
                                              MsgType::kSubmitOk));
  return DecodeSessionId(reply);
}

util::Result<api::RunState> Client::Poll(uint64_t session) {
  HW_ASSIGN_OR_RETURN(std::string reply, Call(MsgType::kPoll,
                                              EncodeSessionId(session),
                                              MsgType::kPollOk));
  return DecodeRunState(reply);
}

util::Result<api::RunReport> Client::Wait(uint64_t session) {
  HW_ASSIGN_OR_RETURN(std::string reply, Call(MsgType::kWait,
                                              EncodeSessionId(session),
                                              MsgType::kReportOk));
  return DecodeRunReport(reply);
}

util::Result<api::RunReport> Client::Report(uint64_t session) {
  HW_ASSIGN_OR_RETURN(std::string reply, Call(MsgType::kReport,
                                              EncodeSessionId(session),
                                              MsgType::kReportOk));
  return DecodeRunReport(reply);
}

util::Result<obs::ProgressSnapshot> Client::Progress(uint64_t session) {
  HW_ASSIGN_OR_RETURN(std::string reply, Call(MsgType::kProgress,
                                              EncodeSessionId(session),
                                              MsgType::kProgressOk));
  return DecodeProgressSnapshot(reply);
}

util::Status Client::Cancel(uint64_t session) {
  return Call(MsgType::kCancel, EncodeSessionId(session), MsgType::kCancelOk)
      .status();
}

}  // namespace histwalk::rpc
