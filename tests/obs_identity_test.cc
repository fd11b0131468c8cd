#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "api/sampler.h"
#include "graph/generators.h"
#include "obs/registry.h"
#include "util/random.h"

// The acceptance identity for the observability PR, pinned as a ctest:
// on a warm-start crawl over durable history, one registry scrape must
// satisfy
//
//   wire_fetches == cache_misses - singleflight_joins
//
// (with the refined accounting: budget refusals and fetch errors also
// subtract, both zero in this scenario). Every cache miss is attributed
// to exactly ONE outcome at the moment it resolves, so the scrape is an
// audit trail: what the crawl was billed (wire fetches == charged
// queries) is derivable from what the cache could not answer.

namespace histwalk::api {
namespace {

graph::Graph TestGraph() {
  util::Random rng(29);
  return graph::MakeWattsStrogatz(/*n=*/300, /*k=*/6, /*beta=*/0.2, rng);
}

std::string SnapshotPath() {
  return (std::filesystem::temp_directory_path() / "obs_identity_test.hwss")
      .string();
}

SamplerBuilder BaseBuilder(const graph::Graph& graph) {
  return SamplerBuilder()
      .OverGraph(&graph)
      .WithWalker({.type = core::WalkerType::kCnrw})
      .WithEnsemble(/*num_walkers=*/4, /*seed=*/17)
      .StopAfterSteps(120);
}

// Phase 1: a cold crawl that persists everything it learned into a
// snapshot, so phase 2 can warm-start against real durable history.
void BuildHistory(const graph::Graph& graph, const std::string& snapshot) {
  std::filesystem::remove(snapshot);
  auto sampler = BaseBuilder(graph)
                     .StopAfterSteps(60)
                     .WithHistoryStore({.snapshot_path = snapshot})
                     .RunInline()
                     .Build();
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();
  ASSERT_TRUE(handle->Wait().ok());
  ASSERT_TRUE((*sampler)->SaveHistory().ok());
}

void CheckIdentity(const graph::Graph& graph, const std::string& snapshot,
                   bool pipelined) {
  obs::Registry registry;
  SamplerBuilder builder = BaseBuilder(graph);
  builder
      // A DIFFERENT seed than the history-building crawl: the warm-start
      // walk must overlap known history (cache hits) AND leave it (wire
      // fetches) — the same seed would retrace phase 1 exactly and never
      // touch the wire.
      .WithEnsemble(/*num_walkers=*/4, /*seed=*/43)
      .WithHistoryStore({.snapshot_path = snapshot,
                         .load_snapshot_path = snapshot,
                         .load_snapshot = true})
      .WithObservability({.registry = &registry});
  if (pipelined) {
    builder
        .WithRemoteWire({.seed = 3, .base_latency_us = 500, .jitter_us = 200})
        .RunPipelined({.depth = 4});
  } else {
    builder.RunInline();
  }
  auto sampler = builder.Build();
  ASSERT_TRUE(sampler.ok()) << sampler.status();
  ASSERT_TRUE((*sampler)->warm_start_status().ok())
      << (*sampler)->warm_start_status();
  auto handle = (*sampler)->Run();
  ASSERT_TRUE(handle.ok()) << handle.status();
  auto report = handle->Wait();
  ASSERT_TRUE(report.ok()) << report.status();

  const obs::ScrapeResult scrape = registry.Scrape();
  const int64_t misses = scrape.Value("hw_access_cache_misses_total");
  const int64_t wire = scrape.Value("hw_net_wire_fetches_total");
  const int64_t joins = scrape.Value("hw_net_singleflight_joins_total");
  const int64_t refused = scrape.Value("hw_access_budget_refusals_total");
  const int64_t errors = scrape.Value("hw_access_fetch_errors_total");

  EXPECT_GT(misses, 0);
  EXPECT_GT(wire, 0) << "the walk never left known history";
  EXPECT_EQ(refused, 0);
  EXPECT_EQ(errors, 0);

  // The acceptance identity, in the issue's phrasing.
  EXPECT_EQ(wire, misses - joins);
  // Equivalent full-attribution form (what resume_demo.sh checks too).
  EXPECT_EQ(misses, wire + joins + refused + errors);

  // Billing agrees: only real wire fetches are charged.
  EXPECT_EQ(scrape.Value("hw_access_charged_queries_total"), wire);

  // The collector-side view of the same run: wire call accounting is
  // present.
  if (pipelined) {
    EXPECT_GT(scrape.Value("hw_net_wire_calls_total"), 0);
  }
}

TEST(ObsIdentityTest, WarmStartScrapeSatisfiesWireAttributionInline) {
  graph::Graph graph = TestGraph();
  const std::string snapshot = SnapshotPath();
  BuildHistory(graph, snapshot);
  CheckIdentity(graph, snapshot, /*pipelined=*/false);
  std::filesystem::remove(snapshot);
}

TEST(ObsIdentityTest, WarmStartScrapeSatisfiesWireAttributionPipelined) {
  graph::Graph graph = TestGraph();
  const std::string snapshot = SnapshotPath();
  BuildHistory(graph, snapshot);
  CheckIdentity(graph, snapshot, /*pipelined=*/true);
  std::filesystem::remove(snapshot);
}

}  // namespace
}  // namespace histwalk::api
