// Simulated OSN API crawl under a real rate limit.
//
//   $ ./build/examples/api_crawler
//
// Shows the access layer end to end: a crawl against the restricted
// interface with unique-query accounting, a query budget, and the virtual
// crawl time the budget would cost under Twitter's 15-calls/15-minutes
// policy — the paper's motivation for cutting query cost in the first
// place. Compares how long (in crawl wall-time) SRW and CNRW need for the
// same estimation accuracy.

#include <iostream>

#include "access/graph_access.h"
#include "access/rate_limiter.h"
#include "core/walker_factory.h"
#include "estimate/estimators.h"
#include "estimate/walk_runner.h"
#include "experiment/datasets.h"
#include "metrics/divergence.h"
#include "util/random.h"

namespace {

using namespace histwalk;

// Queries a sampler needs to push the avg-degree estimate under
// `target_error`, averaged over repeated crawls.
double QueriesForAccuracy(const experiment::Dataset& dataset,
                          core::WalkerType type, double target_error) {
  const double truth = dataset.graph.AverageDegree();
  const uint32_t kCrawls = 60;
  double total_queries = 0.0;
  for (uint32_t crawl = 0; crawl < kCrawls; ++crawl) {
    access::GraphAccess access(&dataset.graph, &dataset.attributes, {});
    auto walker =
        core::MakeWalker({.type = type}, &access, util::SubSeed(1, crawl));
    util::Random start_rng(util::SubSeed(2, crawl));
    (void)(*walker)->Reset(static_cast<graph::NodeId>(
        start_rng.UniformIndex(dataset.graph.num_nodes())));

    estimate::MeanEstimator estimator((*walker)->bias());
    uint64_t queries_needed = 0;
    for (int step = 0; step < 20000; ++step) {
      auto next = (*walker)->Step();
      if (!next.ok()) break;
      auto degree = access.SummaryDegree(*next);
      estimator.Add(static_cast<double>(*degree), *degree);
      if (step >= 50 &&
          metrics::RelativeError(estimator.Estimate(), truth) <
              target_error) {
        queries_needed = access.unique_query_count();
        break;
      }
      queries_needed = access.unique_query_count();
    }
    total_queries += static_cast<double>(queries_needed);
  }
  return total_queries / kCrawls;
}

}  // namespace

int main() {
  using namespace histwalk;

  // A Yelp-like network: small, tight communities are where the
  // history-aware samplers save queries (see EXPERIMENTS.md).
  std::cout << "Building a Yelp-like network to crawl...\n";
  experiment::Dataset dataset =
      experiment::BuildDataset(experiment::DatasetId::kYelp);
  std::cout << "network: " << dataset.graph.DebugString() << "\n\n";

  const double kTargetError = 0.05;
  access::RateLimitPolicy twitter = access::RateLimitPolicy::Twitter();

  for (core::WalkerType type :
       {core::WalkerType::kSrw, core::WalkerType::kCnrw}) {
    double queries = QueriesForAccuracy(dataset, type, kTargetError);
    uint64_t seconds = access::EstimateSeconds(
        twitter, static_cast<uint64_t>(queries));
    std::cout << core::WalkerTypeName(type) << ": ~" << queries
              << " unique queries to reach " << kTargetError * 100
              << "% error => ~" << seconds / 3600.0
              << " hours under Twitter's 15-per-15-minutes limit\n";
  }

  std::cout << "\nEvery query the sampler saves is a minute of crawl time "
               "saved — the paper's whole point.\n"
               "(On graphs without tight local structure the two samplers "
               "tie; they never do worse.)\n";
  return 0;
}
