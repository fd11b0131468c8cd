#ifndef HISTWALK_ACCESS_SHARED_ACCESS_H_
#define HISTWALK_ACCESS_SHARED_ACCESS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "access/backend.h"
#include "access/history_cache.h"
#include "access/node_access.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace.h"

// Shared history for concurrent walker ensembles.
//
// The paper analyses a single walk reusing its own history; running N
// walkers against the same service generalises the idea: any response one
// walker fetched is history for all of them. SharedAccessGroup owns the
// communal state — one AccessBackend, one bounded HistoryCache, one global
// fetch budget — and mints per-walker SharedAccess views. Each view is a
// full NodeAccess, so every existing walker runs unmodified on shared
// history. A group can instead run over an EXTERNAL cache owned by a
// longer-lived service (the shared-cache constructor below): that is how
// service::SamplingService shares one history across many tenant groups
// while each group keeps its own budget and billing.
//
// Accounting is split across the two levels so both stay exact:
//
//  * per view (QueryStats): unique_queries counts the distinct nodes THIS
//    walker asked for — its standalone query cost, independent of what the
//    other walkers or the eviction policy did, hence deterministic given
//    the walk itself. cache_hits counts the walker's own repeats.
//  * per group: charged_queries() counts actual backend fetches — what the
//    service would bill the whole crawl. The gap between the views' summed
//    unique_queries and the group's charged_queries is exactly the ensemble
//    saving from shared history; with a bounded cache, evicted-then-refetched
//    nodes push charges back up, making the memory/queries trade measurable.
//
// A group-level query_budget is a shared quota; refusals surface as the
// typed kBudgetExhausted status (distinct from a per-access
// kResourceExhausted budget), and WHICH view gets refused
// when it runs out depends on thread interleaving — walks under a binding
// group budget are not reproducible across schedules (see
// estimate/ensemble_runner.h for the deterministic per-walker alternative).
//
// Concurrency notes: views are NOT thread-safe individually (one view per
// walker per thread); the group and cache are. Concurrent misses on one
// node collapse into a single fetch (singleflight) on both miss paths: the
// synchronous one parks the later views until the first view's fetch
// lands, and an attached AsyncFetcher (net::RequestPipeline) folds them
// into one deduplicated wire request. With an unbounded cache every node is
// therefore fetched exactly once and charged_queries() does not depend on
// thread interleaving.

namespace histwalk::access {

class AsyncFetcher;
class HistoryJournal;
class SharedAccess;

struct SharedAccessOptions {
  // Global backend-fetch budget across all views; 0 means unlimited.
  uint64_t query_budget = 0;
  HistoryCacheOptions cache = {};
  // Metrics registry the group's counters land in; null = the process
  // Global() registry. Must outlive the group.
  obs::Registry* registry = nullptr;
};

// Cached instrument pointers for the group's miss-path accounting —
// resolved once at group construction so the hot path never touches the
// registry's name map. Every view-level cache miss is attributed to
// EXACTLY ONE of wire_fetches / singleflight_joins / budget_refusals /
// fetch_errors, so
//     cache_misses == wire_fetches + singleflight_joins
//                   + budget_refusals + fetch_errors
// holds exactly (pinned by obs_identity_test).
struct GroupObsCounters {
  obs::Counter* cache_hits = nullptr;
  obs::Counter* cache_misses = nullptr;
  obs::Counter* singleflight_joins = nullptr;
  obs::Counter* wire_fetches = nullptr;
  obs::Counter* budget_refusals = nullptr;
  obs::Counter* fetch_errors = nullptr;
  obs::Histogram* pipeline_wait = nullptr;
};

class SharedAccessGroup {
 public:
  // `backend` must outlive the group; the group must outlive its views.
  // The group owns its HistoryCache (built from options.cache).
  SharedAccessGroup(const AccessBackend* backend,
                    SharedAccessOptions options = {});

  // The cross-tenant seam: the group runs over `shared_cache` instead of
  // owning one (options.cache is ignored). Several groups — one per tenant
  // of a service::SamplingService — can share a single cache this way:
  // each keeps its OWN fetch budget and charge counter (per-tenant
  // billing), while any response one tenant fetched is history for all of
  // them. `shared_cache` must outlive the group (taken by reference, not
  // pointer, so a braced `{}` can never silently select this overload).
  // Note that ResetAll() clears the SHARED cache — never call it while
  // other groups are using the cache.
  SharedAccessGroup(const AccessBackend* backend, HistoryCache& shared_cache,
                    SharedAccessOptions options = {});

  SharedAccessGroup(const SharedAccessGroup&) = delete;
  SharedAccessGroup& operator=(const SharedAccessGroup&) = delete;

  // Mints a per-walker view. Thread-safe, though views are typically
  // created up front and handed one per worker thread.
  std::unique_ptr<SharedAccess> MakeView();

  const AccessBackend* backend() const { return backend_; }
  HistoryCache& cache() { return *cache_; }
  const HistoryCache& cache() const { return *cache_; }
  // True when the cache is externally owned (the cross-tenant seam above).
  bool uses_shared_cache() const { return owned_cache_ == nullptr; }

  // Backend fetches issued so far (the service-billed crawl cost).
  uint64_t charged_queries() const {
    return charged_.load(std::memory_order_relaxed);
  }
  // Remaining fetch budget; UINT64_MAX when unlimited, clamped at 0.
  uint64_t remaining_budget() const;

  // Clears the shared cache and the charge counter. Views keep their own
  // accounting; reset each view separately via ResetAccounting().
  void ResetAll();

  // Attaches (or detaches, with nullptr) the async miss-resolution client:
  // while set, views route cache misses through fetcher->FetchShared()
  // instead of fetching on their own thread. The fetcher must outlive the
  // attachment. Not synchronized against in-flight Neighbors() calls —
  // attach/detach only while no walker is running.
  void set_async_fetcher(AsyncFetcher* fetcher) { fetcher_ = fetcher; }
  AsyncFetcher* async_fetcher() const { return fetcher_; }

  // Attaches (or detaches, with nullptr) a durable-history journal
  // (store::HistoryStore): every backend response newly inserted into the
  // shared cache is announced to it, from whichever thread fetched it.
  // The journal must outlive the attachment. Like set_async_fetcher, not
  // synchronized against in-flight Neighbors() calls — attach/detach only
  // while no walker is running.
  void set_history_journal(HistoryJournal* journal) { journal_ = journal; }
  HistoryJournal* history_journal() const { return journal_; }

  // Attaches (or detaches, with nullptr) a flight recorder that captures
  // every miss-path resolution (obs/flight_recorder.h). Same caveats as
  // set_async_fetcher.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  obs::FlightRecorder* flight_recorder() const { return flight_; }

  // The group's cached metrics instruments (see GroupObsCounters); always
  // non-null pointers once constructed. net::RequestPipeline pushes the
  // singleflight/wait instruments through this.
  const GroupObsCounters& obs() const { return obs_; }

  // Budget hooks for fetch-executing clients (views' synchronous miss path
  // and net::RequestPipeline): claim one unit of fetch budget before a
  // backend fetch — false means the group quota refused it — and refund it
  // if the fetch itself fails.
  bool TryCharge();
  void RefundCharge() { charged_.fetch_sub(1, std::memory_order_relaxed); }

  // The single insert funnel for fetched responses: stores `neighbors`
  // under `v` in the shared cache and, when this call created a new entry,
  // notifies the attached journal. Both miss paths (the views' synchronous
  // fetch and the request pipeline's batch completion) go through here so
  // an attached store sees every response exactly once. Thread-safe.
  HistoryCache::Entry StoreFetched(graph::NodeId v,
                                   std::span<const graph::NodeId> neighbors);

  // Batch analogue of StoreFetched: the whole batch lands through one
  // HistoryCache::PutBatch — a single exclusive-lock acquisition per
  // touched shard, and exactly one for the pipeline's per-shard batches —
  // instead of one Put per response, and the attached journal still sees
  // each genuinely new insertion exactly once, in batch order. Returns the
  // pinned handles aligned with `entries`. Thread-safe.
  std::vector<HistoryCache::Entry> StoreFetchedBatch(
      std::span<const HistoryCache::ImportEntry> entries);

 private:
  friend class SharedAccess;

  const AccessBackend* backend_;
  SharedAccessOptions options_;
  std::unique_ptr<HistoryCache> owned_cache_;  // null when cache is shared
  HistoryCache* cache_;  // owned_cache_.get() or the external shared cache
  std::atomic<uint64_t> charged_{0};
  std::atomic<uint32_t> next_view_id_{0};
  AsyncFetcher* fetcher_ = nullptr;
  HistoryJournal* journal_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;
  GroupObsCounters obs_;

  // Synchronous-path singleflight over the nodes some view is fetching
  // now. ClaimFetch waits out another view's fetch of `v`; it returns false
  // with `*entry` set when `v` is cached by then, otherwise true, and the
  // caller must fetch `v` and call FinishFetch (whether or not it failed).
  bool ClaimFetch(graph::NodeId v, HistoryCache::Entry* entry);
  void FinishFetch(graph::NodeId v);
  std::mutex fetching_mu_;
  std::condition_variable fetching_cv_;
  std::unordered_set<graph::NodeId> fetching_;
};

class SharedAccess final : public NodeAccess {
 public:
  // Prefer SharedAccessGroup::MakeView(). `group` must outlive this view.
  explicit SharedAccess(SharedAccessGroup* group);

  util::Result<std::span<const graph::NodeId>> Neighbors(
      graph::NodeId v) override;
  util::Result<double> Attribute(graph::NodeId v,
                                 attr::AttrId attr) const override;
  util::Result<uint32_t> SummaryDegree(graph::NodeId v) const override;

  uint64_t num_nodes() const override { return group_->backend()->num_nodes(); }
  const QueryStats& stats() const override { return stats_; }
  uint64_t remaining_budget() const override {
    return group_->remaining_budget();
  }
  // Clears this view's accounting only; the shared cache and group budget
  // are untouched (use SharedAccessGroup::ResetAll for those).
  void ResetAccounting() override;

  // Shared-cache footprint plus this view's private membership bits. Note
  // that summing HistoryBytes() across views counts the shared cache once
  // per view; ensemble-level reporting adds private_history_bytes() per
  // view to one cache footprint instead.
  uint64_t HistoryBytes() const override {
    return group_->cache().MemoryBytes() + private_history_bytes();
  }
  // History state owned by this view alone (its queried_ membership bits).
  uint64_t private_history_bytes() const { return (queried_.size() + 7) / 8; }

  // Backend fetches this view triggered (cache misses it paid for). Unlike
  // unique_queries this depends on thread interleaving under concurrency.
  uint64_t charged_fetches() const { return charged_fetches_; }

  SharedAccessGroup* group() const { return group_; }

  // Stable id of this view within its group (creation order) — the
  // `actor` field of flight-recorder events.
  uint32_t view_id() const { return view_id_; }

  // Points this view's probe instants at `tracer`'s `track` (typically
  // the per-walker track); null detaches. The view is single-threaded, so
  // this is safe between (not during) Neighbors() calls.
  void set_trace(obs::Tracer* tracer, uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

 private:
  void AccountServed(graph::NodeId v);
  // Counts, traces and flight-records one resolved miss as `kind`.
  void RecordMissOutcome(graph::NodeId v, obs::FlightEventKind kind,
                         uint64_t start_us);

  SharedAccessGroup* group_;
  obs::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
  uint32_t view_id_ = 0;
  QueryStats stats_;
  std::vector<bool> queried_;  // nodes THIS view has asked for
  uint64_t charged_fetches_ = 0;
  // Handles to recently returned responses: keeps their spans valid even if
  // the shared cache evicts the entries mid-step (one neighbor list is live
  // per walker step; two gives margin).
  HistoryCache::Entry retained_[2];
  size_t retain_slot_ = 0;
};

}  // namespace histwalk::access

#endif  // HISTWALK_ACCESS_SHARED_ACCESS_H_
