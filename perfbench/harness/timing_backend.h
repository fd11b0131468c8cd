#ifndef HISTWALK_PERFBENCH_TIMING_BACKEND_H_
#define HISTWALK_PERFBENCH_TIMING_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "access/backend.h"

namespace histwalk::perfbench {

// The traced run's probe at the backend boundary: an AccessBackend
// decorator handed to SamplerBuilder::OverBackend (under the simulated
// wire, where one exists). Counts every neighbor fetch call and the ids it
// carries, and keeps each call's real duration, so the harness can report
// backend.fetch_calls / fetch_items / fetch_us_p50 without touching src/.
//
// Thread-safe: the walkers (inline mode) and the pipeline workers call it
// concurrently. Each call claims a unique sample slot, so no slot is ever
// written twice; slots past the capacity are counted but not kept.
class TimingBackend final : public access::AccessBackend {
 public:
  TimingBackend(const access::AccessBackend* inner, size_t max_samples)
      : inner_(inner), samples_(max_samples) {}

  util::Result<std::span<const graph::NodeId>> FetchNeighbors(
      graph::NodeId v) const override {
    const auto start = std::chrono::steady_clock::now();
    auto result = inner_->FetchNeighbors(v);
    Record(1, std::chrono::steady_clock::now() - start);
    return result;
  }

  std::vector<util::Result<std::span<const graph::NodeId>>>
  FetchNeighborsBatch(std::span<const graph::NodeId> ids) const override {
    const auto start = std::chrono::steady_clock::now();
    auto results = inner_->FetchNeighborsBatch(ids);
    Record(ids.size(), std::chrono::steady_clock::now() - start);
    return results;
  }

  util::Result<double> FetchAttribute(graph::NodeId v,
                                      attr::AttrId attr) const override {
    return inner_->FetchAttribute(v, attr);
  }
  util::Result<uint32_t> FetchSummaryDegree(graph::NodeId v) const override {
    return inner_->FetchSummaryDegree(v);
  }
  uint64_t num_nodes() const override { return inner_->num_nodes(); }
  std::string name() const override { return inner_->name(); }

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  uint64_t items() const { return items_.load(std::memory_order_relaxed); }

  // Per-call durations in ns, in claim order. Call once the run that used
  // the backend has been waited for.
  std::vector<uint64_t> DurationsNs() const {
    const size_t kept = static_cast<size_t>(
        std::min<uint64_t>(calls(), samples_.size()));
    std::vector<uint64_t> out(kept);
    for (size_t i = 0; i < kept; ++i) {
      out[i] = samples_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  void Record(size_t items, std::chrono::steady_clock::duration elapsed) const {
    const uint64_t slot = calls_.fetch_add(1, std::memory_order_relaxed);
    items_.fetch_add(items, std::memory_order_relaxed);
    if (slot < samples_.size()) {
      samples_[slot].store(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          std::memory_order_relaxed);
    }
  }

  const access::AccessBackend* inner_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> items_{0};
  mutable std::vector<std::atomic<uint64_t>> samples_;
};

}  // namespace histwalk::perfbench

#endif  // HISTWALK_PERFBENCH_TIMING_BACKEND_H_
