#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "api/sampler.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "rpc/client.h"
#include "rpc/frame.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "util/random.h"
#include "util/socket.h"
#include "util/status.h"

// The RPC front end to end: a histwalk_serviced-shaped daemon (rpc::Server
// over a service-mode api::Sampler) driven by remote samplers
// (SamplerBuilder::WithRemoteService). Covers the acceptance criteria of
// the subsystem — shared-cache savings across remote tenants, bounded
// admission queueing visible as hw_rpc_admission_queue_depth, per-RPC
// deadlines, and a server that refuses hostile frames without dying.

namespace histwalk::rpc {
namespace {

constexpr uint32_t kWalkers = 4;
constexpr uint64_t kSeed = 5;
constexpr uint64_t kSteps = 120;

// A daemon in a box: graph, registry, hosted service-mode sampler, server.
// Heap-allocated because the sampler keeps a pointer to the graph.
struct Daemon {
  graph::Graph graph;
  obs::Registry registry;
  std::unique_ptr<api::Sampler> sampler;
  std::unique_ptr<Server> server;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server->port());
  }
};

std::unique_ptr<Daemon> StartDaemon(api::ServiceConfig service = {}) {
  auto daemon = std::make_unique<Daemon>();
  util::Random rng(99);
  daemon->graph = graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.2,
                                           rng);
  auto sampler = api::SamplerBuilder()
                     .OverGraph(&daemon->graph)
                     .WithObservability({.registry = &daemon->registry})
                     .RunAsService(service)
                     .WithWalker({.type = core::WalkerType::kCnrw})
                     .StopAfterSteps(kSteps)
                     .EstimateAverageDegree()
                     .Build();
  EXPECT_TRUE(sampler.ok()) << sampler.status();
  daemon->sampler = *std::move(sampler);
  ServerOptions options;
  options.registry = &daemon->registry;
  auto server = Server::Start(daemon->sampler.get(), options);
  EXPECT_TRUE(server.ok()) << server.status();
  daemon->server = *std::move(server);
  return daemon;
}

util::Result<std::unique_ptr<api::Sampler>> DialSampler(
    const std::string& endpoint, uint64_t rpc_timeout_ms = 0) {
  return api::SamplerBuilder()
      .WithRemoteService(endpoint, rpc_timeout_ms)
      .WithWalker({.type = core::WalkerType::kCnrw})
      .WithEnsemble(kWalkers, kSeed)
      .StopAfterSteps(kSteps)
      .Build();
}

// ---- end to end -------------------------------------------------------

TEST(RpcEndToEndTest, RemoteSubmitWaitReportAndPoll) {
  auto daemon = StartDaemon();
  auto sampler = DialSampler(daemon->endpoint());
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  EXPECT_EQ((*sampler)->remote_client()->server_name(), "histwalk_serviced");

  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();
  auto report = handle->Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->ensemble.traces.size(), kWalkers);
  for (const auto& trace : report->ensemble.traces) {
    EXPECT_FALSE(trace.nodes.empty());
  }
  EXPECT_GT(report->charged_queries, 0u);
  EXPECT_TRUE(report->has_estimate);
  EXPECT_GT(report->estimate, 0.0);

  // The outcome is pinned client-side: Poll and Report serve it without
  // caring that the server-side session has detached.
  EXPECT_EQ(handle->Poll(), api::RunState::kDone);
  auto cached = handle->Report();
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->charged_queries, report->charged_queries);
  EXPECT_EQ(std::bit_cast<uint64_t>(cached->estimate),
            std::bit_cast<uint64_t>(report->estimate));

  const ServerStats stats = daemon->server->stats();
  EXPECT_EQ(stats.connections_total, 1u);
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST(RpcEndToEndTest, RemoteProgressAndCancel) {
  auto daemon = StartDaemon();
  auto sampler = DialSampler(daemon->endpoint());
  ASSERT_TRUE(sampler.ok()) << sampler.status();

  // A run long enough to be observably in flight. (Cancel in this
  // codebase waits the walk out and discards the report — there is no
  // early-stop signal — so the walk must be finite.)
  api::RunOptions options = (*sampler)->default_run_options();
  options.max_steps = 2'000'000;
  options.progress_interval = 8;
  auto handle = (*sampler)->Run(options);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_EQ(handle->Poll(), api::RunState::kRunning);

  // Progress snapshots stream over the wire while the run lives.
  obs::ProgressSnapshot snapshot;
  for (int i = 0; i < 2000 && snapshot.total_steps == 0; ++i) {
    snapshot = handle->Progress();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(snapshot.total_steps, 0u);

  handle->Cancel();
  EXPECT_EQ(handle->Poll(), api::RunState::kFailed);
  auto report = handle->Report();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.status().message(), "run was canceled");
}

TEST(RpcEndToEndTest, DaemonSideErrorsTravelAsTypedStatus) {
  auto daemon = StartDaemon();
  auto sampler = DialSampler(daemon->endpoint());
  ASSERT_TRUE(sampler.ok()) << sampler.status();

  // No stop condition: the daemon's sampler refuses the submit, and the
  // refusal arrives as the same typed status an in-process caller gets.
  api::RunOptions options = (*sampler)->default_run_options();
  options.max_steps = 0;
  options.query_budget = 0;
  auto handle = (*sampler)->Run(options);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), util::StatusCode::kInvalidArgument);

  // Unknown wire sessions are typed NotFound, not a dead connection.
  auto client = Client::Dial(daemon->endpoint(), {});
  ASSERT_TRUE(client.ok()) << client.status();
  auto reply = (*client)->Call(MsgType::kPoll, EncodeSessionId(424242),
                               MsgType::kPollOk);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), util::StatusCode::kNotFound);
}

TEST(RpcEndToEndTest, BuilderRejectsDaemonSideOptionsAndDeadEndpoints) {
  graph::Graph graph;
  // Stack options belong to the daemon; a remote sampler is connection +
  // run defaults only.
  auto with_graph = api::SamplerBuilder()
                        .WithRemoteService("127.0.0.1:1")
                        .OverGraph(&graph)
                        .StopAfterSteps(10)
                        .Build();
  EXPECT_EQ(with_graph.status().code(), util::StatusCode::kInvalidArgument);
  auto with_estimand = api::SamplerBuilder()
                           .WithRemoteService("127.0.0.1:1")
                           .EstimateAverageDegree()
                           .StopAfterSteps(10)
                           .Build();
  EXPECT_EQ(with_estimand.status().code(),
            util::StatusCode::kInvalidArgument);
  auto bad_endpoint = api::SamplerBuilder()
                          .WithRemoteService("nowhere")
                          .StopAfterSteps(10)
                          .Build();
  EXPECT_EQ(bad_endpoint.status().code(),
            util::StatusCode::kInvalidArgument);

  // A vacant port is kUnavailable at Build — dialing is eager so the
  // caller learns immediately, not at the first Run.
  auto vacated = util::TcpListener::Listen(0);
  ASSERT_TRUE(vacated.ok());
  const uint16_t port = vacated->port();
  vacated->Shutdown();
  auto absent = DialSampler("127.0.0.1:" + std::to_string(port));
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.status().code(), util::StatusCode::kUnavailable);
}

// ---- the shared-cache acceptance criterion ----------------------------

// Two remote tenants on ONE daemon share its history cache, so the second
// tenant's walk is served from history the first already paid for; two
// isolated daemons each pay the full wire bill. This is the paper's
// history-sharing thesis surviving the trip through the RPC front.
TEST(RpcEndToEndTest, TenantsSharingOneDaemonPayFewerWireFetches) {
  auto run_tenant = [](const std::string& endpoint) -> uint64_t {
    auto sampler = DialSampler(endpoint);
    EXPECT_TRUE(sampler.ok()) << sampler.status();
    auto handle = (*sampler)->Run();
    EXPECT_TRUE(handle.ok()) << handle.status();
    auto report = handle->Wait();
    EXPECT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->ensemble.summed_stats.total_queries, 0u);
    return report->charged_queries;
  };

  auto shared = StartDaemon();
  const uint64_t shared_first = run_tenant(shared->endpoint());
  const uint64_t shared_second = run_tenant(shared->endpoint());

  auto isolated_a = StartDaemon();
  auto isolated_b = StartDaemon();
  const uint64_t isolated_first = run_tenant(isolated_a->endpoint());
  const uint64_t isolated_second = run_tenant(isolated_b->endpoint());

  // Same graph, same seed, cold caches: the first tenant pays the same
  // bill everywhere, and each isolated daemon re-pays it in full.
  EXPECT_EQ(shared_first, isolated_first);
  EXPECT_EQ(isolated_first, isolated_second);
  EXPECT_GT(shared_first, 0u);
  // The shared daemon's second tenant rides the first tenant's history.
  EXPECT_LT(shared_second, isolated_second);
  EXPECT_LT(shared_first + shared_second, isolated_first + isolated_second);

  const service::ServiceStats stats = shared->sampler->service()->stats();
  EXPECT_GT(stats.cache.hits, 0u);
  EXPECT_EQ(shared->server->stats().sessions_opened, 2u);
}

// ---- admission queueing -----------------------------------------------

TEST(RpcEndToEndTest, SubmitsQueueBehindTheSessionCapAndSurfaceAsDepth) {
  auto daemon = StartDaemon(
      {.max_sessions = 1, .admission_wait_us = 20'000'000});

  // Tenant 1 holds the only admission slot until its report is retrieved.
  auto first = DialSampler(daemon->endpoint());
  ASSERT_TRUE(first.ok()) << first.status();
  auto first_handle = (*first)->Run();
  ASSERT_TRUE(first_handle.ok()) << first_handle.status();

  // Tenant 2's Submit parks in the service's bounded admission wait,
  // occupying one RPC window slot but not failing.
  auto second = DialSampler(daemon->endpoint());
  ASSERT_TRUE(second.ok()) << second.status();
  util::Result<api::RunHandle> second_handle =
      util::Status::Internal("not yet run");
  std::thread submitter(
      [&] { second_handle = (*second)->Run(); });

  // The queue is visible: the service counts the parked Submit, and the
  // server's collector exports it as hw_rpc_admission_queue_depth.
  bool queued = false;
  for (int i = 0; i < 5000 && !queued; ++i) {
    queued = daemon->sampler->service()->stats().admission_waiting == 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(queued) << "tenant 2 never queued behind the session cap";
  EXPECT_EQ(daemon->registry.Scrape().Value("hw_rpc_admission_queue_depth"),
            1);

  // Retrieving tenant 1's report frees the slot; tenant 2 gets admitted
  // and completes normally.
  auto first_report = first_handle->Wait();
  ASSERT_TRUE(first_report.ok()) << first_report.status();
  submitter.join();
  ASSERT_TRUE(second_handle.ok()) << second_handle.status();
  auto second_report = second_handle->Wait();
  ASSERT_TRUE(second_report.ok()) << second_report.status();

  const service::ServiceStats stats = daemon->sampler->service()->stats();
  EXPECT_GE(stats.admission_waits, 1u);
  EXPECT_EQ(stats.admission_waiting, 0u);
  EXPECT_EQ(daemon->registry.Scrape().Value("hw_rpc_admission_queue_depth"),
            0);
}

// ---- deadlines --------------------------------------------------------

// A scripted peer instead of a real daemon: completes the handshake and
// answers Submit, swallows the first Wait (forcing the client's deadline
// to fire), sends the swallowed Wait's reply LATE (the client must drop
// it), then answers the retried Wait. Both Waits must address the session
// the Submit reply named. Fully deterministic — no sleeps on the server
// side.
TEST(RpcDeadlineTest, WaitDeadlineIsTypedRetryableAndDropsLateReplies) {
  auto listener = util::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();

  api::RunReport served;
  served.charged_queries = 42;
  served.has_estimate = true;
  served.estimate = 3.25;

  std::thread peer([&] {
    auto stream = listener->Accept();
    ASSERT_TRUE(stream.ok()) << stream.status();
    auto reply = [&](uint64_t corr, MsgType type, std::string payload) {
      Frame frame;
      frame.type = static_cast<uint16_t>(type);
      frame.correlation_id = corr;
      frame.payload = std::move(payload);
      ASSERT_TRUE(WriteFrame(*stream, frame).ok());
    };
    auto expect_wait_for_session_7 = [](const Frame& wait) {
      EXPECT_EQ(wait.type, static_cast<uint16_t>(MsgType::kWait));
      auto session = DecodeSessionId(wait.payload);
      ASSERT_TRUE(session.ok()) << session.status();
      EXPECT_EQ(*session, 7u);
    };
    Frame frame;
    ASSERT_TRUE(ReadFrame(*stream, &frame).ok());  // kHello
    reply(frame.correlation_id, MsgType::kHelloOk, EncodeHello({}));
    ASSERT_TRUE(ReadFrame(*stream, &frame).ok());  // kSubmit
    reply(frame.correlation_id, MsgType::kSubmitOk, EncodeSessionId(7));
    ASSERT_TRUE(ReadFrame(*stream, &frame).ok());  // kWait #1 — swallowed
    expect_wait_for_session_7(frame);
    const uint64_t first_wait = frame.correlation_id;
    ASSERT_TRUE(ReadFrame(*stream, &frame).ok());  // kWait #2
    expect_wait_for_session_7(frame);
    // #2 arriving proves the client timed out #1; its late reply must be
    // dropped by the reader, not delivered to anyone.
    reply(first_wait, MsgType::kReportOk, EncodeRunReport(api::RunReport{}));
    reply(frame.correlation_id, MsgType::kReportOk, EncodeRunReport(served));
    // Hold the connection until the client hangs up.
    while (ReadFrame(*stream, &frame).ok()) {
    }
  });

  auto sampler = api::SamplerBuilder()
                     .WithRemoteService("127.0.0.1:" + std::to_string(port),
                                        /*rpc_timeout_ms=*/100)
                     .StopAfterSteps(10)
                     .Build();
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();

  auto first = handle->Wait();
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(util::IsDeadlineExceeded(first.status())) << first.status();

  // The expiry is not a cached outcome: Wait again and get the report.
  auto second = handle->Wait();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->charged_queries, 42u);
  EXPECT_EQ(std::bit_cast<uint64_t>(second->estimate),
            std::bit_cast<uint64_t>(3.25));

  *handle = api::RunHandle();
  sampler->reset();  // hangs up; the peer's read loop ends
  peer.join();
}

// ---- hostile frames ---------------------------------------------------

// Raw attacks on a live daemon. Each hostile connection is refused and
// torn down; the daemon counts the violation and keeps serving everyone
// else — run under ASan in CI, this is also a memory-safety proof.
TEST(RpcHostileFrameTest, ServerRefusesHostileBytesAndKeepsServing) {
  auto daemon = StartDaemon();
  const uint16_t port = daemon->server->port();

  auto connect = [&] {
    auto stream = util::TcpStream::ConnectLocal(port);
    EXPECT_TRUE(stream.ok()) << stream.status();
    return *std::move(stream);
  };
  auto handshake = [&](util::TcpStream& stream) {
    Frame hello;
    hello.type = static_cast<uint16_t>(MsgType::kHello);
    hello.payload = EncodeHello({});
    ASSERT_TRUE(WriteFrame(stream, hello).ok());
    Frame reply;
    ASSERT_TRUE(ReadFrame(stream, &reply).ok());
    ASSERT_EQ(reply.type, static_cast<uint16_t>(MsgType::kHelloOk));
  };

  {  // Truncated header, then disconnect.
    util::TcpStream stream = connect();
    ASSERT_TRUE(stream.SendAll("HWRP\x05").ok());
    stream.Close();
  }
  {  // Oversized length prefix: refused from the header alone.
    util::TcpStream stream = connect();
    std::string wire = EncodeFrame(Frame{});
    const uint32_t huge = 0xFFFFFFFFu;
    std::memcpy(wire.data() + 16, &huge, sizeof(huge));
    ASSERT_TRUE(stream.SendAll(wire).ok());
    char byte;
    // The server closes without replying (nothing is parseable).
    EXPECT_FALSE(stream.RecvAll(&byte, 1).ok());
  }
  {  // Disconnect mid-frame: header promises 64 bytes, 10 arrive.
    util::TcpStream stream = connect();
    Frame frame;
    frame.type = static_cast<uint16_t>(MsgType::kHello);
    frame.payload = std::string(64, 'z');
    std::string wire = EncodeFrame(frame);
    ASSERT_TRUE(
        stream.SendAll(std::string_view(wire).substr(0, wire.size() - 54))
            .ok());
    stream.Close();
  }
  {  // Garbage magic.
    util::TcpStream stream = connect();
    ASSERT_TRUE(stream.SendAll(std::string(kFrameHeaderBytes, '\xAA')).ok());
    char byte;
    EXPECT_FALSE(stream.RecvAll(&byte, 1).ok());
  }
  {  // A request before hello: typed refusal, then the connection ends.
    util::TcpStream stream = connect();
    Frame poll;
    poll.type = static_cast<uint16_t>(MsgType::kPoll);
    poll.correlation_id = 1;
    poll.payload = EncodeSessionId(1);
    ASSERT_TRUE(WriteFrame(stream, poll).ok());
    Frame reply;
    ASSERT_TRUE(ReadFrame(stream, &reply).ok());
    EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
    util::Status refusal;
    ASSERT_TRUE(DecodeStatusPayload(reply.payload, &refusal).ok());
    EXPECT_EQ(refusal.code(), util::StatusCode::kFailedPrecondition);
  }
  {  // Wrong protocol version: typed refusal naming both versions.
    util::TcpStream stream = connect();
    Frame hello;
    hello.type = static_cast<uint16_t>(MsgType::kHello);
    hello.payload = EncodeHello({.version = 99, .peer_name = "time traveler"});
    ASSERT_TRUE(WriteFrame(stream, hello).ok());
    Frame reply;
    ASSERT_TRUE(ReadFrame(stream, &reply).ok());
    EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
    util::Status refusal;
    ASSERT_TRUE(DecodeStatusPayload(reply.payload, &refusal).ok());
    EXPECT_EQ(refusal.code(), util::StatusCode::kFailedPrecondition);
  }
  {  // Unknown message type AFTER a good handshake: refused, NOT fatal —
     // a newer client probing an older server keeps its connection.
    util::TcpStream stream = connect();
    handshake(stream);
    Frame probe;
    probe.type = 999;
    probe.correlation_id = 5;
    ASSERT_TRUE(WriteFrame(stream, probe).ok());
    Frame reply;
    ASSERT_TRUE(ReadFrame(stream, &reply).ok());
    EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
    EXPECT_EQ(reply.correlation_id, 5u);
    // Same connection, next request: still served.
    Frame poll;
    poll.type = static_cast<uint16_t>(MsgType::kPoll);
    poll.correlation_id = 6;
    poll.payload = EncodeSessionId(12345);
    ASSERT_TRUE(WriteFrame(stream, poll).ok());
    ASSERT_TRUE(ReadFrame(stream, &reply).ok());
    EXPECT_EQ(reply.type, static_cast<uint16_t>(MsgType::kError));
    util::Status not_found;
    ASSERT_TRUE(DecodeStatusPayload(reply.payload, &not_found).ok());
    EXPECT_EQ(not_found.code(), util::StatusCode::kNotFound);
  }

  // Hostile connections die individually; the attacked daemon still runs
  // walks for well-behaved clients.
  auto sampler = DialSampler(daemon->endpoint());
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();
  auto report = handle->Wait();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->ensemble.traces.size(), kWalkers);

  // The error counters are bumped by each hostile connection's reader
  // thread; give the last stragglers a beat to observe their EOFs.
  ServerStats stats = daemon->server->stats();
  for (int i = 0; i < 2000 && stats.protocol_errors < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = daemon->server->stats();
  }
  EXPECT_GE(stats.protocol_errors, 6u);
  EXPECT_EQ(daemon->registry.Scrape().Value("hw_rpc_protocol_errors_total"),
            static_cast<int64_t>(stats.protocol_errors));
}

// ---- drain ------------------------------------------------------------

TEST(RpcEndToEndTest, ShutdownReapsLiveSessionsAndFailsTheirClients) {
  auto daemon = StartDaemon();
  auto sampler = DialSampler(daemon->endpoint());
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  api::RunOptions options = (*sampler)->default_run_options();
  options.max_steps = 2'000'000;  // long enough to still be in flight
  auto handle = (*sampler)->Run(options);
  ASSERT_TRUE(handle.ok()) << handle.status();

  // Drain with the session still running: the server cancels it (waiting
  // the walk out) so its admission slot and walker threads are reclaimed,
  // not leaked.
  daemon->server->Shutdown();
  EXPECT_EQ(daemon->server->stats().sessions_reaped, 1u);
  EXPECT_EQ(daemon->server->stats().connections_active, 0u);

  // The client's connection is dead; the handle reports that, typed.
  auto report = handle->Wait();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(handle->Poll(), api::RunState::kFailed);
}

}  // namespace
}  // namespace histwalk::rpc
