#ifndef HISTWALK_PERFBENCH_WORKLOADS_H_
#define HISTWALK_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace histwalk::perfbench {

struct BenchConfig {
  // "hot_walk", "cold_crawl" or "tenant_mix".
  std::string workload;
  // Every input (graph, walk seeds, wire jitter) derives from this.
  uint64_t seed = 1;
  // Run the reference walks the correctness gate compares against,
  // instead of a round.
  bool reference = false;
  // A traced round: timing backend decorator, profiler, timed
  // Build/Run/Wait/SaveHistory calls (and, in tenant_mix, the in-process
  // session baseline).
  bool traced = false;
  // Tiny sizes: schema and correctness-gate checks, not measurement.
  bool quick = false;
  // Directory (created by the caller) for the store's WAL and snapshot.
  std::string scratch_dir;
};

// Runs one round of `config.workload` (set-up, then the timed phase) or,
// with `config.reference`, its reference walks, and returns one JSON
// document with the raw measurements (times in ns, counts as counts).
// perfbench/run.py runs one round per process and turns the rounds into
// metrics and verdicts.
util::Result<std::string> RunWorkload(const BenchConfig& config);

}  // namespace histwalk::perfbench

#endif  // HISTWALK_PERFBENCH_WORKLOADS_H_
