#include <gtest/gtest.h>

#include <algorithm>

#include "access/graph_access.h"
#include "access/rate_limiter.h"
#include "graph/generators.h"

namespace histwalk::access {
namespace {

class GraphAccessTest : public testing::Test {
 protected:
  GraphAccessTest() : graph_(graph::MakeCycle(6)), attrs_(6) {
    auto id = attrs_.AddColumn("age", {10, 20, 30, 40, 50, 60});
    EXPECT_TRUE(id.ok());
    age_ = *id;
  }
  graph::Graph graph_;
  attr::AttributeTable attrs_;
  attr::AttrId age_ = 0;
};

TEST_F(GraphAccessTest, NeighborsMatchGraph) {
  GraphAccess access(&graph_, &attrs_);
  auto ns = access.Neighbors(0);
  ASSERT_TRUE(ns.ok());
  ASSERT_EQ(ns->size(), 2u);
  EXPECT_EQ((*ns)[0], 1u);
  EXPECT_EQ((*ns)[1], 5u);
}

TEST_F(GraphAccessTest, UniqueQueryAccounting) {
  GraphAccess access(&graph_, &attrs_);
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_TRUE(access.Neighbors(1).ok());
  EXPECT_TRUE(access.Neighbors(0).ok());  // cache hit
  const QueryStats& stats = access.stats();
  EXPECT_EQ(stats.total_queries, 3u);
  EXPECT_EQ(stats.unique_queries, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(access.unique_query_count(), 2u);
}

TEST_F(GraphAccessTest, BudgetRefusesNewQueriesButServesCache) {
  GraphAccess access(&graph_, &attrs_, {.query_budget = 2});
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_TRUE(access.Neighbors(1).ok());
  auto refused = access.Neighbors(2);
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), util::StatusCode::kResourceExhausted);
  // Cached nodes still answer after exhaustion.
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_EQ(access.unique_query_count(), 2u);
  EXPECT_EQ(access.remaining_budget(), 0u);
}

TEST_F(GraphAccessTest, UnlimitedBudgetReportsMax) {
  GraphAccess access(&graph_, &attrs_);
  EXPECT_EQ(access.remaining_budget(), UINT64_MAX);
}

TEST_F(GraphAccessTest, UnknownNodeIsOutOfRange) {
  GraphAccess access(&graph_, &attrs_);
  EXPECT_EQ(access.Neighbors(99).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(access.Attribute(99, age_).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(access.SummaryDegree(99).status().code(),
            util::StatusCode::kOutOfRange);
  // A refused query is not charged.
  EXPECT_EQ(access.stats().total_queries, 0u);
}

TEST_F(GraphAccessTest, AttributesAndSummaryDegreeAreFree) {
  GraphAccess access(&graph_, &attrs_);
  auto age = access.Attribute(3, age_);
  ASSERT_TRUE(age.ok());
  EXPECT_DOUBLE_EQ(*age, 40.0);
  auto degree = access.SummaryDegree(3);
  ASSERT_TRUE(degree.ok());
  EXPECT_EQ(*degree, 2u);
  EXPECT_EQ(access.stats().total_queries, 0u);
  EXPECT_EQ(access.unique_query_count(), 0u);
}

TEST_F(GraphAccessTest, MissingAttributeTable) {
  GraphAccess access(&graph_, nullptr);
  EXPECT_EQ(access.Attribute(0, 0).status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(GraphAccessTest, ResetAccountingRestoresBudgetAndCache) {
  GraphAccess access(&graph_, &attrs_, {.query_budget = 1});
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_FALSE(access.Neighbors(1).ok());
  access.ResetAccounting();
  EXPECT_EQ(access.unique_query_count(), 0u);
  EXPECT_EQ(access.remaining_budget(), 1u);
  EXPECT_TRUE(access.Neighbors(1).ok());
}

TEST(RateLimitPolicyTest, EstimateSecondsCountsFullWindows) {
  RateLimitPolicy policy{.calls_per_window = 15, .window_seconds = 900};
  // Twitter: 1000 queries => 66 full windows of waiting.
  EXPECT_EQ(EstimateSeconds(policy, 1000), 66u * 900u);
  EXPECT_EQ(EstimateSeconds(policy, 15), 0u);
  EXPECT_EQ(EstimateSeconds(policy, 16), 900u);
  EXPECT_EQ(EstimateSeconds(policy, 0), 0u);
}

TEST(RateLimitPolicyTest, PresetPolicies) {
  EXPECT_EQ(RateLimitPolicy::Twitter().calls_per_window, 15u);
  EXPECT_EQ(RateLimitPolicy::Yelp().calls_per_window, 25'000u);
}

TEST_F(GraphAccessTest, ResetAccountingClearsCacheMembership) {
  GraphAccess access(&graph_, &attrs_);
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_EQ(access.stats().cache_hits, 1u);
  access.ResetAccounting();
  // The membership bits must go with the counters: the next query of node 0
  // is charged again, not served as a phantom cache hit.
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_EQ(access.stats().cache_hits, 0u);
  EXPECT_EQ(access.stats().unique_queries, 1u);
  EXPECT_EQ(access.stats().total_queries, 1u);
}

TEST_F(GraphAccessTest, TightenedBudgetDoesNotUnderflowRemaining) {
  GraphAccess access(&graph_, &attrs_, {.query_budget = 4});
  EXPECT_TRUE(access.Neighbors(0).ok());
  EXPECT_TRUE(access.Neighbors(1).ok());
  EXPECT_TRUE(access.Neighbors(2).ok());
  // Re-budget below what was already spent: remaining must clamp at 0, not
  // wrap around to ~UINT64_MAX and unlock unlimited querying.
  access.set_query_budget(2);
  EXPECT_EQ(access.remaining_budget(), 0u);
  auto refused = access.Neighbors(3);
  EXPECT_EQ(refused.status().code(), util::StatusCode::kResourceExhausted);
  // Cached answers still replay for free.
  EXPECT_TRUE(access.Neighbors(0).ok());
  // A reset restores the (new) budget in full.
  access.ResetAccounting();
  EXPECT_EQ(access.remaining_budget(), 2u);
  EXPECT_TRUE(access.Neighbors(3).ok());
}

TEST_F(GraphAccessTest, BackendFetchesAreUnchargedAndUncached) {
  GraphAccess access(&graph_, &attrs_, {.query_budget = 1});
  const AccessBackend& backend = access;
  auto ns = backend.FetchNeighbors(0);
  ASSERT_TRUE(ns.ok());
  EXPECT_EQ(ns->size(), 2u);
  EXPECT_TRUE(backend.FetchNeighbors(1).ok());
  EXPECT_TRUE(backend.FetchNeighbors(2).ok());
  // Raw fetches bypass budget and accounting entirely.
  EXPECT_EQ(access.stats().total_queries, 0u);
  EXPECT_EQ(access.remaining_budget(), 1u);
  EXPECT_EQ(backend.FetchNeighbors(99).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(backend.FetchSummaryDegree(0).value(), 2u);
  EXPECT_EQ(backend.FetchAttribute(1, 0).value(), 20.0);
  EXPECT_EQ(backend.name(), "graph");
}

TEST_F(GraphAccessTest, HistoryBytesTracksMembershipBits) {
  GraphAccess access(&graph_, &attrs_);
  // One bit per node, rounded up to bytes: 6 nodes -> 1 byte.
  EXPECT_EQ(access.HistoryBytes(), 1u);
}

// AccessBackend wrapper that counts underlying FetchNeighbors calls, for
// pinning the default batch implementation's dedup behaviour.
class CountingBackend final : public AccessBackend {
 public:
  explicit CountingBackend(const AccessBackend* inner) : inner_(inner) {}

  util::Result<std::span<const graph::NodeId>> FetchNeighbors(
      graph::NodeId v) const override {
    ++fetches_;
    return inner_->FetchNeighbors(v);
  }
  util::Result<double> FetchAttribute(graph::NodeId v,
                                      attr::AttrId attr) const override {
    return inner_->FetchAttribute(v, attr);
  }
  util::Result<uint32_t> FetchSummaryDegree(graph::NodeId v) const override {
    return inner_->FetchSummaryDegree(v);
  }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  std::string name() const override { return "counting"; }

  uint64_t fetches() const { return fetches_; }

 private:
  const AccessBackend* inner_;
  mutable uint64_t fetches_ = 0;
};

TEST_F(GraphAccessTest, DefaultBatchDeduplicatesRepeatedIds) {
  GraphAccess inner(&graph_, &attrs_);
  CountingBackend backend(&inner);
  std::vector<graph::NodeId> ids = {0, 1, 0, 2, 1, 0};
  auto results = backend.FetchNeighborsBatch(ids);
  ASSERT_EQ(results.size(), ids.size());
  // One underlying fetch per distinct id, not per slot.
  EXPECT_EQ(backend.fetches(), 3u);
  // Every slot is still positionally aligned and correctly filled.
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "slot " << i;
    auto direct = inner.FetchNeighbors(ids[i]);
    ASSERT_TRUE(direct.ok());
    EXPECT_TRUE(std::equal(results[i]->begin(), results[i]->end(),
                           direct->begin(), direct->end()))
        << "slot " << i;
  }
}

TEST_F(GraphAccessTest, DefaultBatchSharesFailureAcrossDuplicates) {
  GraphAccess inner(&graph_, &attrs_);
  CountingBackend backend(&inner);
  graph::NodeId bad = static_cast<graph::NodeId>(graph_.num_nodes());
  std::vector<graph::NodeId> ids = {bad, 0, bad};
  auto results = backend.FetchNeighborsBatch(ids);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(backend.fetches(), 2u);  // bad fetched once, 0 fetched once
  EXPECT_FALSE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), results[0].status().code());
}

TEST(RateLimitPolicyTest, EstimateSecondsTwitterPolicy) {
  RateLimitPolicy twitter = RateLimitPolicy::Twitter();
  EXPECT_EQ(EstimateSeconds(twitter, 15), 0u);
  EXPECT_EQ(EstimateSeconds(twitter, 16), 900u);
  EXPECT_EQ(EstimateSeconds(twitter, 30), 900u);
  EXPECT_EQ(EstimateSeconds(twitter, 31), 1800u);
  // A 10k-query crawl against Twitter's window: ~one week of virtual time.
  EXPECT_EQ(EstimateSeconds(twitter, 10'000), 666u * 900u);
}

TEST(RateLimitPolicyTest, EstimateSecondsYelpPolicy) {
  RateLimitPolicy yelp = RateLimitPolicy::Yelp();
  EXPECT_EQ(EstimateSeconds(yelp, 25'000), 0u);
  EXPECT_EQ(EstimateSeconds(yelp, 25'001), 86'400u);
  EXPECT_EQ(EstimateSeconds(yelp, 50'000), 86'400u);
  EXPECT_EQ(EstimateSeconds(yelp, 50'001), 2u * 86'400u);
}

}  // namespace
}  // namespace histwalk::access
