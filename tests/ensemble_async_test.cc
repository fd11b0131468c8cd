#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "access/graph_access.h"
#include "estimate/ensemble_runner.h"
#include "graph/generators.h"
#include "net/remote_backend.h"
#include "net/request_pipeline.h"
#include "util/random.h"

// The acceptance contract of RunEnsemble over an attached RequestPipeline:
// pipelined fetching changes WHEN responses arrive (simulated wall-clock),
// never WHAT the walkers do. Merged traces and per-walker QueryStats must
// be bit-identical to the synchronous miss path at every pipeline depth,
// while the RemoteBackend's simulated clock shows depth > 1 finishing the
// same crawl sooner.

namespace histwalk::estimate {
namespace {

graph::Graph TestGraph() {
  util::Random rng(99);
  return graph::MakeWattsStrogatz(/*n=*/600, /*k=*/6, /*beta=*/0.2, rng);
}

const EnsembleOptions kOptions{.num_walkers = 6, .seed = 3,
                               .max_steps = 150};

// Wires a per-run pipeline by hand — attach, run, detach — and records its
// traffic in pipeline_stats, as the pipelined api::Sampler does.
util::Result<EnsembleResult> RunPipelined(
    access::SharedAccessGroup& group, const EnsembleOptions& options,
    const net::RequestPipelineOptions& pipeline_options) {
  net::RequestPipeline pipeline(&group, pipeline_options);
  group.set_async_fetcher(&pipeline);
  auto run = RunEnsemble(group, {.type = core::WalkerType::kCnrw}, options);
  group.set_async_fetcher(nullptr);
  if (run.ok()) run->pipeline_stats = pipeline.stats();
  return run;
}

void ExpectSameRun(const EnsembleResult& a, const EnsembleResult& b) {
  ASSERT_EQ(a.starts, b.starts);
  ASSERT_EQ(a.traces.size(), b.traces.size());
  for (size_t i = 0; i < a.traces.size(); ++i) {
    EXPECT_EQ(a.traces[i].nodes, b.traces[i].nodes) << "walker " << i;
    EXPECT_EQ(a.traces[i].degrees, b.traces[i].degrees) << "walker " << i;
    EXPECT_EQ(a.traces[i].unique_queries, b.traces[i].unique_queries)
        << "walker " << i;
  }
  ASSERT_EQ(a.walker_stats.size(), b.walker_stats.size());
  for (size_t i = 0; i < a.walker_stats.size(); ++i) {
    EXPECT_EQ(a.walker_stats[i].total_queries,
              b.walker_stats[i].total_queries) << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].unique_queries,
              b.walker_stats[i].unique_queries) << "walker " << i;
    EXPECT_EQ(a.walker_stats[i].cache_hits, b.walker_stats[i].cache_hits)
        << "walker " << i;
  }
}

// Holds the first `width` misses until all of them wait at once, then
// serves every miss through `inner`. The misses can only meet when `width`
// walkers run at the same time; a caller that waits in vain gives up after
// a few seconds and the rendezvous is marked failed.
class RendezvousFetcher final : public access::AsyncFetcher {
 public:
  RendezvousFetcher(access::AsyncFetcher* inner, uint32_t width)
      : inner_(inner), width_(width) {}

  util::Result<Fetched> FetchShared(graph::NodeId v) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (arrived_ < width_ && !timed_out_) {
        ++arrived_;
        cv_.notify_all();
        if (!cv_.wait_for(lock, std::chrono::seconds(5),
                          [this] { return arrived_ == width_; })) {
          timed_out_ = true;
        }
      }
    }
    return inner_->FetchShared(v);
  }

  bool met() const {
    std::lock_guard<std::mutex> lock(mu_);
    return arrived_ == width_ && !timed_out_;
  }

 private:
  access::AsyncFetcher* inner_;
  const uint32_t width_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint32_t arrived_ = 0;
  bool timed_out_ = false;
};

TEST(PipelinedEnsembleTest, MatchesSyncRunnerBitForBitAtEveryDepth) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup sync_group(&backend);
  auto sync_run =
      RunEnsemble(sync_group, {.type = core::WalkerType::kCnrw}, kOptions);
  ASSERT_TRUE(sync_run.ok());

  for (uint32_t depth : {1u, 2u, 4u}) {
    access::SharedAccessGroup async_group(&backend);
    auto async_run = RunPipelined(async_group, kOptions,
                                  {.depth = depth, .max_batch = 4});
    ASSERT_TRUE(async_run.ok()) << "depth " << depth;
    ExpectSameRun(*sync_run, *async_run);
    // The pipeline actually carried the misses.
    EXPECT_GT(async_run->pipeline_stats.wire_requests, 0u);
    EXPECT_EQ(async_run->pipeline_stats.wire_items,
              async_run->charged_queries);
    // Lookup conservation pins the no-double-count guarantee: every
    // Neighbors() call is exactly one cache lookup, and the pipeline adds
    // lookups only on its (hit-only) late-hit path — its submit-time probe
    // peeks with the stats-free Contains(). Before that fix, every
    // submitted miss counted twice and this identity broke by
    // pipeline_stats.submitted.
    EXPECT_EQ(async_run->cache_stats.hits + async_run->cache_stats.misses,
              async_run->summed_stats.total_queries +
                  async_run->pipeline_stats.late_hits)
        << "depth " << depth;
  }
}

TEST(PipelinedEnsembleTest, MatchesSyncUnderBoundedCache) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessOptions group_options{
      .cache = {.capacity = 64, .num_shards = 4}};
  access::SharedAccessGroup sync_group(&backend, group_options);
  auto sync_run =
      RunEnsemble(sync_group, {.type = core::WalkerType::kCnrw}, kOptions);
  ASSERT_TRUE(sync_run.ok());

  access::SharedAccessGroup async_group(&backend, group_options);
  auto async_run =
      RunPipelined(async_group, kOptions, {.depth = 3, .max_batch = 4});
  ASSERT_TRUE(async_run.ok());
  ExpectSameRun(*sync_run, *async_run);
}

TEST(PipelinedEnsembleTest, AsyncRunsAreReproducible) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group_a(&backend);
  access::SharedAccessGroup group_b(&backend);
  auto a = RunPipelined(group_a, kOptions, {.depth = 4});
  auto b = RunPipelined(group_b, kOptions, {.depth = 4});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSameRun(*a, *b);
}

TEST(PipelinedEnsembleTest, DeeperPipelineShrinksSimulatedWallClock) {
  graph::Graph graph = TestGraph();
  access::GraphAccess inner(&graph, nullptr);

  auto sim_wall_at_depth = [&](uint32_t depth) {
    net::RemoteBackend remote(&inner, {.seed = 11, .max_in_flight = depth});
    access::SharedAccessGroup group(&remote);
    // num_threads = 1 pins the thread rule: with a fetcher attached the
    // runner gives every walker its own thread. Honouring num_threads
    // would walk the ensemble serially, and depth could buy nothing.
    auto run = RunPipelined(group,
                            {.num_walkers = 8, .seed = 5, .max_steps = 200,
                             .num_threads = 1},
                            {.depth = depth, .max_batch = 8});
    EXPECT_TRUE(run.ok());
    return remote.sim_now_us();
  };

  uint64_t serial = sim_wall_at_depth(1);
  uint64_t overlapped = sim_wall_at_depth(8);
  EXPECT_GT(serial, 0u);
  // Overlapping + batching must buy a measurable chunk of simulated time.
  EXPECT_LT(overlapped * 2, serial);
}

TEST(PipelinedEnsembleTest, EveryWalkerGetsItsOwnThreadWhenAFetcherIsAttached) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend);
  net::RequestPipeline pipeline(&group, {.depth = 2});
  // Every walker's first lookup misses the empty cache and parks here, so
  // all of them meet only if they run concurrently — even though the
  // options ask for one thread.
  RendezvousFetcher rendezvous(&pipeline, kOptions.num_walkers);
  group.set_async_fetcher(&rendezvous);
  EnsembleOptions options = kOptions;
  options.num_threads = 1;
  auto run = RunEnsemble(group, {.type = core::WalkerType::kCnrw}, options);
  group.set_async_fetcher(nullptr);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_TRUE(rendezvous.met())
      << "walkers did not run concurrently with a fetcher attached";
}

TEST(PipelinedEnsembleTest, GroupBudgetSurfacesTypedStatus) {
  graph::Graph graph = TestGraph();
  access::GraphAccess backend(&graph, nullptr);
  access::SharedAccessGroup group(&backend, {.query_budget = 40});
  auto run = RunPipelined(group,
                          {.num_walkers = 4, .seed = 9, .max_steps = 10'000},
                          {.depth = 2, .max_batch = 4});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(group.charged_queries(), 40u);
  bool any_exhausted = false;
  for (const TracedWalk& trace : run->traces) {
    if (trace.final_status.code() == util::StatusCode::kBudgetExhausted) {
      any_exhausted = true;
    }
  }
  EXPECT_TRUE(any_exhausted);
}

}  // namespace
}  // namespace histwalk::estimate
