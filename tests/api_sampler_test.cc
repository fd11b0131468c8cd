#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "api/sampler.h"
#include "graph/generators.h"
#include "rpc/server.h"
#include "util/random.h"

// Unit coverage of the api/ facade itself: builder validation, the
// RunHandle session lifecycle (Poll/Wait/Report/Cancel) in every mode,
// warm starts through an owned HistoryStore, and estimator selection.

namespace histwalk::api {
namespace {

graph::Graph TestGraph() {
  util::Random rng(7);
  return graph::MakeWattsStrogatz(/*n=*/400, /*k=*/6, /*beta=*/0.2, rng);
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SamplerBuilder BaseBuilder(const graph::Graph& graph) {
  return SamplerBuilder()
      .OverGraph(&graph)
      .WithWalker({.type = core::WalkerType::kCnrw})
      .WithEnsemble(/*num_walkers=*/4, /*seed=*/11)
      .StopAfterSteps(80);
}

constexpr ExecutionMode kAllModes[] = {
    ExecutionMode::kInline, ExecutionMode::kPipelined, ExecutionMode::kService,
    ExecutionMode::kRemote};

// Hosts the stack a remote-mode sampler dials.
struct Daemon {
  std::unique_ptr<Sampler> sampler;
  std::unique_ptr<rpc::Server> server;
};

// Builds `builder` in `mode`. Remote mode builds it as a service-mode
// sampler served by an in-process rpc::Server (kept alive in `daemon`),
// and returns a sampler dialed to it with the same run defaults.
util::Result<std::unique_ptr<Sampler>> BuildInMode(SamplerBuilder builder,
                                                   ExecutionMode mode,
                                                   Daemon& daemon) {
  switch (mode) {
    case ExecutionMode::kInline:
      return builder.RunInline().Build();
    case ExecutionMode::kPipelined:
      return builder.RunPipelined({.depth = 2}).Build();
    case ExecutionMode::kService:
      return builder.RunAsService().Build();
    case ExecutionMode::kRemote:
      break;
  }
  HW_ASSIGN_OR_RETURN(daemon.sampler, builder.RunAsService().Build());
  HW_ASSIGN_OR_RETURN(daemon.server,
                      rpc::Server::Start(daemon.sampler.get(), {}));
  const RunOptions& defaults = daemon.sampler->default_run_options();
  return SamplerBuilder()
      .WithRemoteService("127.0.0.1:" + std::to_string(daemon.server->port()))
      .WithWalker(defaults.walker)
      .WithEnsemble(defaults.num_walkers, defaults.seed)
      .StopAfterSteps(defaults.max_steps)
      .Build();
}

TEST(SamplerBuilderTest, RefusesMissingBackend) {
  auto sampler = SamplerBuilder().Build();
  ASSERT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(SamplerBuilderTest, RefusesAttributeEstimandWithoutAttributes) {
  graph::Graph graph = TestGraph();
  auto sampler = SamplerBuilder()
                     .OverGraph(&graph)
                     .EstimateAttributeMean("age")
                     .Build();
  ASSERT_FALSE(sampler.ok());
  EXPECT_EQ(sampler.status().code(), util::StatusCode::kInvalidArgument);
}

// Observability is opt-in: the flight-recorder capacity DEFAULT (128)
// must not switch recording on for builders that never call
// WithObservability, in any mode; opting in does record.
TEST(SamplerTest, FlightRecorderOnlyRecordsWhenObservabilityOptedIn) {
  graph::Graph graph = TestGraph();
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunPipelined({.depth = 2}); },
        +[](SamplerBuilder& b) { b.RunAsService(); }}) {
    SamplerBuilder off = BaseBuilder(graph).WithRemoteWire(
        {.seed = 3, .base_latency_us = 100});
    configure(off);
    auto silent = off.Build();
    ASSERT_TRUE(silent.ok()) << silent.status();
    auto handle = (*silent)->Run();
    ASSERT_TRUE(handle.ok()) << handle.status();
    auto report = handle->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_TRUE(report->flight.events.empty());
    EXPECT_EQ(report->flight.dropped, 0u);

    SamplerBuilder on = BaseBuilder(graph).WithRemoteWire(
        {.seed = 3, .base_latency_us = 100});
    configure(on);
    on.WithObservability({});
    auto recording = on.Build();
    ASSERT_TRUE(recording.ok()) << recording.status();
    auto rec_handle = (*recording)->Run();
    ASSERT_TRUE(rec_handle.ok()) << rec_handle.status();
    auto rec_report = rec_handle->Wait();
    ASSERT_TRUE(rec_report.ok()) << rec_report.status();
    EXPECT_FALSE(rec_report->flight.events.empty());
  }
}

TEST(SamplerTest, WaitThenReportReturnTheSameReport) {
  graph::Graph graph = TestGraph();
  for (ExecutionMode mode : kAllModes) {
    SCOPED_TRACE(ExecutionModeName(mode));
    Daemon daemon;
    auto sampler =
        BuildInMode(BaseBuilder(graph).EstimateAverageDegree(), mode, daemon);
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    auto handle = (*sampler)->Run();
    ASSERT_TRUE(handle.ok()) << handle.status();
    auto waited = handle->Wait();
    ASSERT_TRUE(waited.ok()) << waited.status();
    EXPECT_EQ(handle->Poll(), RunState::kDone);
    auto reported = handle->Report();
    ASSERT_TRUE(reported.ok()) << reported.status();
    EXPECT_EQ(waited->charged_queries, reported->charged_queries);
    EXPECT_EQ(waited->ensemble.num_steps(), reported->ensemble.num_steps());
    EXPECT_TRUE(waited->has_estimate);
    EXPECT_GT(waited->estimate, 0.0);
    // A second Wait returns the cached copy (service sessions are already
    // detached by the first).
    auto again = handle->Wait();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->charged_queries, waited->charged_queries);
    if (mode == ExecutionMode::kRemote) {
      // Run + Wait cost one kSubmit and one kWait; the Poll, Report and
      // second Wait above are served from the handle's cache. (The server
      // counts a request just after queueing it, so allow it a beat.)
      for (int i = 0; i < 2000 && daemon.server->stats().requests_total < 2;
           ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(daemon.server->stats().requests_total, 2u);
    }
  }
}

// Inline and pipelined samplers are one-slot services: an overlapping Run
// is an admission refusal, and a finished run holds its slot until its
// handle is waited on, canceled or dropped.
TEST(SamplerTest, ThreadModesRunOneAtATime) {
  graph::Graph graph = TestGraph();
  auto sampler = BaseBuilder(graph).RunInline().Build();
  ASSERT_TRUE(sampler.ok());
  RunOptions options = (*sampler)->default_run_options();
  options.max_steps = 500'000;
  auto first = (*sampler)->Run(options);
  ASSERT_TRUE(first.ok()) << first.status();
  // Refused whether or not the first run has finished: nobody has waited
  // on it yet.
  auto second = (*sampler)->Run();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), util::StatusCode::kUnavailable);
  // Finished but never waited on: still resident, still refusing.
  while (first->Poll() == RunState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*sampler)->service()->stats().resident_sessions, 1u);
  EXPECT_TRUE(util::IsUnavailable((*sampler)->Run().status()));
  EXPECT_TRUE(first->Wait().ok());
  // After Wait, the slot is free again.
  auto third = (*sampler)->Run();
  ASSERT_TRUE(third.ok()) << third.status();
  // Cancel frees it too.
  third->Cancel();
  auto fourth = (*sampler)->Run();
  ASSERT_TRUE(fourth.ok()) << fourth.status();
  EXPECT_TRUE(fourth->Wait().ok());
}

// SaveHistory checkpoints the shared cache whenever it is called, also
// while a run is in flight.
TEST(SamplerTest, SaveHistoryCheckpointsMidRun) {
  graph::Graph graph = TestGraph();
  const std::string snapshot = TempPath("api_sampler_midrun.hwss");
  std::remove(snapshot.c_str());
  auto sampler = BaseBuilder(graph)
                     .WithHistoryStore(store::HistoryStoreOptions{
                         .snapshot_path = snapshot, .checkpoint_wal_bytes = 0})
                     .RunInline()
                     .Build();
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  RunOptions options = (*sampler)->default_run_options();
  options.max_steps = 200'000;
  auto handle = (*sampler)->Run(options);
  ASSERT_TRUE(handle.ok()) << handle.status();
  EXPECT_TRUE((*sampler)->SaveHistory().ok());
  ASSERT_TRUE(handle->Wait().ok());
  EXPECT_TRUE((*sampler)->SaveHistory().ok());
  EXPECT_EQ((*sampler)->history_store()->stats().checkpoints, 2u);
  std::remove(snapshot.c_str());
}

// Inline and pipelined runs are service sessions: each report carries its
// session latency and a flight log of its own misses only.
TEST(SamplerTest, ThreadModeReportsCarryLatencyAndPerRunFlight) {
  graph::Graph graph = TestGraph();
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunInline(/*num_threads=*/1); },
        +[](SamplerBuilder& b) { b.RunPipelined({.depth = 2}); }}) {
    SamplerBuilder builder = BaseBuilder(graph)
                                 .WithRemoteWire({.seed = 3,
                                                  .base_latency_us = 100})
                                 .WithObservability({});
    configure(builder);
    auto sampler = builder.Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    auto first = (*sampler)->Run().value().Wait();
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_GT(first->latency_us, 0u);
    EXPECT_FALSE(first->flight.events.empty());
    // The same walk again is all history: no misses of its own to log.
    auto second = (*sampler)->Run().value().Wait();
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second->charged_queries, 0u);
    EXPECT_TRUE(second->flight.events.empty());
  }
}

TEST(SamplerTest, CancelDiscardsTheRun) {
  graph::Graph graph = TestGraph();
  for (ExecutionMode mode : kAllModes) {
    SCOPED_TRACE(ExecutionModeName(mode));
    Daemon daemon;
    auto sampler = BuildInMode(BaseBuilder(graph), mode, daemon);
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    auto handle = (*sampler)->Run();
    ASSERT_TRUE(handle.ok());
    handle->Cancel();
    EXPECT_EQ(handle->Poll(), RunState::kFailed);
    auto report = handle->Wait();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), util::StatusCode::kFailedPrecondition);
    handle->Cancel();  // idempotent
    EXPECT_EQ(handle->Report().status().code(),
              util::StatusCode::kFailedPrecondition);
    // The sampler survives a canceled run.
    auto next = (*sampler)->Run();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_TRUE(next->Wait().ok());
    // Cancel after a completed Wait still discards the cached report.
    next->Cancel();
    EXPECT_EQ(next->Poll(), RunState::kFailed);
    EXPECT_EQ(next->Wait().status().code(),
              util::StatusCode::kFailedPrecondition);
  }
}

// Dropping the last copy of a handle nobody waited on frees its session:
// the slot must not leak, even on a one-slot sampler.
TEST(SamplerTest, DroppedHandleFreesItsSession) {
  graph::Graph graph = TestGraph();
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunInline(); },
        +[](SamplerBuilder& b) { b.RunPipelined({.depth = 2}); },
        +[](SamplerBuilder& b) { b.RunAsService({.max_sessions = 1}); }}) {
    SamplerBuilder builder = BaseBuilder(graph);
    configure(builder);
    auto sampler = builder.Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    {
      auto handle = (*sampler)->Run();
      ASSERT_TRUE(handle.ok()) << handle.status();
      RunHandle copy = *handle;  // the last of two copies frees it
    }
    EXPECT_EQ((*sampler)->service()->stats().resident_sessions, 0u);
    auto next = (*sampler)->Run();
    ASSERT_TRUE(next.ok()) << next.status();
    EXPECT_TRUE(next->Wait().ok());
  }
}

TEST(SamplerTest, WarmStartReplaysHistoryAndChargesNothing) {
  graph::Graph graph = TestGraph();
  const std::string snapshot = TempPath("api_sampler_warm.hwss");
  std::remove(snapshot.c_str());

  auto with_store = [&](SamplerBuilder builder) {
    return builder.WithHistoryStore(store::HistoryStoreOptions{
        .snapshot_path = snapshot, .checkpoint_wal_bytes = 0});
  };

  uint64_t cold_charged = 0;
  {
    auto sampler = with_store(BaseBuilder(graph).RunPipelined({.depth = 2}))
                       .Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    EXPECT_TRUE((*sampler)->warm_start_status().ok());
    auto report = (*sampler)->Run();
    ASSERT_TRUE(report.ok());
    auto waited = report->Wait();
    ASSERT_TRUE(waited.ok());
    cold_charged = waited->charged_queries;
    ASSERT_TRUE((*sampler)->SaveHistory().ok());
  }
  EXPECT_GT(cold_charged, 0u);

  // Same task over a warm-started sampler: every neighbor list is already
  // history, so the bill is zero and the samples identical.
  {
    auto sampler = with_store(BaseBuilder(graph).RunPipelined({.depth = 2}))
                       .Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    EXPECT_TRUE((*sampler)->warm_start_status().ok());
    auto handle = (*sampler)->Run();
    ASSERT_TRUE(handle.ok());
    auto report = handle->Wait();
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->charged_queries, 0u);
  }
  std::remove(snapshot.c_str());
}

// tenant_query_budget is the run's group quota in every in-process mode.
TEST(SamplerTest, GroupBudgetSurfacesAsBudgetStopAndExactBill) {
  graph::Graph graph = TestGraph();
  for (auto configure :
       {+[](SamplerBuilder& b) { b.RunInline(/*num_threads=*/1); },
        +[](SamplerBuilder& b) { b.RunPipelined({.depth = 2}); },
        +[](SamplerBuilder& b) { b.RunAsService(); }}) {
    SamplerBuilder builder = BaseBuilder(graph);
    configure(builder);
    auto sampler = builder.Build();
    ASSERT_TRUE(sampler.ok()) << sampler.status();
    RunOptions options = (*sampler)->default_run_options();
    options.max_steps = 100'000;  // the budget must stop the run
    options.tenant_query_budget = 40;
    auto handle = (*sampler)->Run(options);
    ASSERT_TRUE(handle.ok());
    auto report = handle->Wait();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->charged_queries, 40u);
    bool budget_stop = false;
    for (const auto& trace : report->ensemble.traces) {
      budget_stop |= util::IsBudgetStop(trace.final_status);
    }
    EXPECT_TRUE(budget_stop);
  }
}

}  // namespace
}  // namespace histwalk::api
