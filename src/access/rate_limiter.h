#ifndef HISTWALK_ACCESS_RATE_LIMITER_H_
#define HISTWALK_ACCESS_RATE_LIMITER_H_

#include <cstdint>

// Simulated API rate limits.
//
// Real OSNs throttle neighborhood queries hard ("15 calls every 15 minutes"
// on Twitter, "25,000 calls per day" on Yelp — section 2.1). The simulator
// does not sleep: net::LatencyModel gates each wire request's issue time on
// a RateLimitPolicy over its virtual clock, so experiments can report the
// crawl wall-time a given query budget would cost against a real service.

namespace histwalk::access {

struct RateLimitPolicy {
  uint64_t calls_per_window = 15;
  uint64_t window_seconds = 900;  // Twitter's 15 minutes

  static RateLimitPolicy Twitter() { return {15, 900}; }
  static RateLimitPolicy Yelp() { return {25'000, 86'400}; }
};

// Crawl seconds a serial crawl of `num_queries` would wait under `policy`
// (windows anchored at time 0, no latency): each window grants
// calls_per_window queries, and the last query issues at the start of the
// window it falls in.
inline uint64_t EstimateSeconds(const RateLimitPolicy& policy,
                                uint64_t num_queries) {
  if (num_queries == 0) return 0;
  return (num_queries - 1) / policy.calls_per_window * policy.window_seconds;
}

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_RATE_LIMITER_H_
