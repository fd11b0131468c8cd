#include <gtest/gtest.h>

#include <vector>

#include "net/latency_model.h"

namespace histwalk::net {
namespace {

TEST(LatencyModelTest, SameSeedSameOrderReplaysIdenticalTimeline) {
  LatencyModelOptions options{.seed = 42, .max_in_flight = 3};
  LatencyModel a(options);
  LatencyModel b(options);
  for (uint64_t items : {1u, 4u, 1u, 2u, 8u, 1u}) {
    LatencyModel::Schedule sa = a.ScheduleRequest(items);
    LatencyModel::Schedule sb = b.ScheduleRequest(items);
    EXPECT_EQ(sa.request_index, sb.request_index);
    EXPECT_EQ(sa.issue_us, sb.issue_us);
    EXPECT_EQ(sa.complete_us, sb.complete_us);
    EXPECT_EQ(sa.latency_us, sb.latency_us);
  }
  EXPECT_EQ(a.now_us(), b.now_us());
}

TEST(LatencyModelTest, DifferentSeedsDrawDifferentJitter) {
  LatencyModel a({.seed = 1, .jitter_us = 1'000'000});
  LatencyModel b({.seed = 2, .jitter_us = 1'000'000});
  bool any_difference = false;
  for (int i = 0; i < 8 && !any_difference; ++i) {
    any_difference =
        a.ScheduleRequest().latency_us != b.ScheduleRequest().latency_us;
  }
  EXPECT_TRUE(any_difference);
}

TEST(LatencyModelTest, LatencyForIsPureAndMatchesSchedule) {
  LatencyModelOptions options{.seed = 7, .per_item_us = 500};
  LatencyModel model(options);
  uint64_t predicted0 = model.LatencyUsFor(0, 1);
  uint64_t predicted1 = model.LatencyUsFor(1, 3);
  EXPECT_EQ(model.LatencyUsFor(0, 1), predicted0);  // pure: no state moved
  EXPECT_EQ(model.ScheduleRequest(1).latency_us, predicted0);
  EXPECT_EQ(model.ScheduleRequest(3).latency_us, predicted1);
  // Batched items add exactly per_item_us each beyond the first.
  EXPECT_EQ(model.LatencyUsFor(5, 4) - model.LatencyUsFor(5, 1), 3u * 500u);
}

TEST(LatencyModelTest, DepthOneSerializesTheWire) {
  LatencyModel model({.seed = 3, .max_in_flight = 1});
  uint64_t sum = 0;
  for (int i = 0; i < 10; ++i) {
    LatencyModel::Schedule s = model.ScheduleRequest();
    EXPECT_EQ(s.issue_us, sum);  // each request waits for the previous
    sum += s.latency_us;
  }
  EXPECT_EQ(model.now_us(), sum);
}

TEST(LatencyModelTest, MoreInFlightSlotsShrinkTheMakespan) {
  constexpr int kRequests = 64;
  LatencyModel serial({.seed = 9, .max_in_flight = 1});
  LatencyModel overlapped({.seed = 9, .max_in_flight = 8});
  for (int i = 0; i < kRequests; ++i) {
    serial.ScheduleRequest();
    overlapped.ScheduleRequest();
  }
  // Identical per-request latencies (same seed, same order), so depth 8
  // must finish well ahead — at least 4x here, ideally ~8x.
  EXPECT_LT(overlapped.now_us() * 4, serial.now_us());
  EXPECT_EQ(serial.requests_issued(), overlapped.requests_issued());
}

TEST(LatencyModelTest, RateLimitWindowGatesIssueTimes) {
  // 2 calls per 1-second window, zero latency noise: requests 0-1 issue in
  // window 0, requests 2-3 at t=1s, request 4 at t=2s.
  LatencyModel model({.seed = 1,
                      .base_latency_us = 1'000,
                      .jitter_us = 0,
                      .max_in_flight = 8,
                      .rate_limit = {.calls_per_window = 2,
                                     .window_seconds = 1}});
  std::vector<uint64_t> issues;
  for (int i = 0; i < 5; ++i) issues.push_back(model.ScheduleRequest().issue_us);
  EXPECT_EQ(issues[0], 0u);
  EXPECT_EQ(issues[1], 0u);
  EXPECT_EQ(issues[2], 1'000'000u);
  EXPECT_EQ(issues[3], 1'000'000u);
  EXPECT_EQ(issues[4], 2'000'000u);
  EXPECT_GT(model.rate_limited_us(), 0u);
}

TEST(LatencyModelTest, RateLimitGateMatchesEstimateSeconds) {
  // With no latency the gate alone sets issue times, so the 1000th request
  // under Twitter's 15-per-900s policy issues exactly when
  // access::EstimateSeconds says a 1000-query crawl is done waiting.
  const access::RateLimitPolicy policy{.calls_per_window = 15,
                                       .window_seconds = 900};
  LatencyModel model({.seed = 1,
                      .base_latency_us = 0,
                      .jitter_us = 0,
                      .rate_limit = policy});
  LatencyModel::Schedule last;
  for (int i = 0; i < 1000; ++i) last = model.ScheduleRequest();
  EXPECT_EQ(last.request_index, 999u);
  EXPECT_EQ(last.issue_us, access::EstimateSeconds(policy, 1000) * 1'000'000);
}

TEST(LatencyModelTest, BatchSpendsOneRateLimitToken) {
  LatencyModelOptions options{.seed = 1,
                              .base_latency_us = 1'000,
                              .jitter_us = 0,
                              .per_item_us = 10,
                              .max_in_flight = 8,
                              .rate_limit = {.calls_per_window = 2,
                                             .window_seconds = 1}};
  // 8 items as 8 requests: burns 4 windows' worth of tokens...
  LatencyModel singles(options);
  for (int i = 0; i < 8; ++i) singles.ScheduleRequest(1);
  // ...but as one batch it is a single call in window 0.
  LatencyModel batched(options);
  LatencyModel::Schedule s = batched.ScheduleRequest(8);
  EXPECT_EQ(s.issue_us, 0u);
  EXPECT_LT(batched.now_us(), singles.now_us() / 2);
  EXPECT_EQ(batched.items_requested(), singles.items_requested());
}

TEST(LatencyModelTest, ResetRewindsEverything) {
  LatencyModel model({.seed = 5});
  model.ScheduleRequest(3);
  model.ScheduleRequest(1);
  EXPECT_GT(model.now_us(), 0u);
  model.Reset();
  EXPECT_EQ(model.now_us(), 0u);
  EXPECT_EQ(model.requests_issued(), 0u);
  EXPECT_EQ(model.items_requested(), 0u);
  // And the replay starts from request 0 again: identical first schedule.
  LatencyModel fresh({.seed = 5});
  EXPECT_EQ(model.ScheduleRequest(3).latency_us,
            fresh.ScheduleRequest(3).latency_us);
}

}  // namespace
}  // namespace histwalk::net
