#include "access/shared_access.h"

#include <string>

#include "access/async_fetcher.h"
#include "access/history_journal.h"
#include "util/check.h"

namespace histwalk::access {

namespace {

// Resolved once per group so the miss path costs one cached pointer
// dereference plus a relaxed striped add, never a registry name lookup.
GroupObsCounters ResolveObsCounters(obs::Registry* registry) {
  obs::Registry& reg =
      registry != nullptr ? *registry : obs::Registry::Global();
  GroupObsCounters obs;
  obs.cache_hits = reg.counter("hw_access_cache_hits_total");
  obs.cache_misses = reg.counter("hw_access_cache_misses_total");
  obs.singleflight_joins = reg.counter("hw_net_singleflight_joins_total");
  obs.wire_fetches = reg.counter("hw_net_wire_fetches_total");
  obs.budget_refusals = reg.counter("hw_access_budget_refusals_total");
  obs.fetch_errors = reg.counter("hw_access_fetch_errors_total");
  obs.pipeline_wait = reg.histogram("hw_net_pipeline_wait_items");
  return obs;
}

std::string ProbeArgs(const HistoryCache& cache, graph::NodeId v,
                      const char* result) {
  return "\"node\":" + std::to_string(v) + ",\"shard\":" +
         std::to_string(HistoryCache::ShardOf(v, cache.num_shards())) +
         ",\"result\":\"" + result + "\"";
}

}  // namespace

SharedAccessGroup::SharedAccessGroup(const AccessBackend* backend,
                                     SharedAccessOptions options)
    : backend_(backend),
      options_(options),
      owned_cache_(std::make_unique<HistoryCache>(options.cache)),
      cache_(owned_cache_.get()),
      obs_(ResolveObsCounters(options.registry)) {
  HW_CHECK(backend_ != nullptr);
}

SharedAccessGroup::SharedAccessGroup(const AccessBackend* backend,
                                     HistoryCache& shared_cache,
                                     SharedAccessOptions options)
    : backend_(backend),
      options_(options),
      cache_(&shared_cache),
      obs_(ResolveObsCounters(options.registry)) {
  HW_CHECK(backend_ != nullptr);
}

std::unique_ptr<SharedAccess> SharedAccessGroup::MakeView() {
  return std::make_unique<SharedAccess>(this);
}

uint64_t SharedAccessGroup::remaining_budget() const {
  if (options_.query_budget == 0) return UINT64_MAX;
  uint64_t charged = charged_queries();
  return charged >= options_.query_budget ? 0
                                          : options_.query_budget - charged;
}

void SharedAccessGroup::ResetAll() {
  cache_->Clear();
  charged_.store(0, std::memory_order_relaxed);
}

HistoryCache::Entry SharedAccessGroup::StoreFetched(
    graph::NodeId v, std::span<const graph::NodeId> neighbors) {
  bool inserted = false;
  HistoryCache::Entry entry = cache_->Put(v, neighbors, &inserted);
  // Journal only genuinely new entries: a Put that lost a concurrent
  // double-fetch race was already logged by the winner.
  if (inserted && journal_ != nullptr) {
    journal_->OnCacheInsert(v, std::span<const graph::NodeId>(*entry),
                            *cache_);
  }
  return entry;
}

std::vector<HistoryCache::Entry> SharedAccessGroup::StoreFetchedBatch(
    std::span<const HistoryCache::ImportEntry> entries) {
  std::vector<HistoryCache::Entry> stored(entries.size());
  // A one-entry batch (the common pipeline case) keeps its flag on the
  // stack instead of allocating the flag array.
  bool inserted_one = false;
  std::unique_ptr<bool[]> inserted_many;
  bool* inserted = &inserted_one;
  if (entries.size() > 1) {
    inserted_many = std::make_unique<bool[]>(entries.size());
    inserted = inserted_many.get();
  }
  cache_->PutBatch(entries, stored.data(), inserted);
  if (journal_ != nullptr) {
    // Journal only genuinely new entries, after the batch landed (the
    // cache is authoritative, the journal trails it).
    for (size_t i = 0; i < entries.size(); ++i) {
      if (inserted[i]) {
        journal_->OnCacheInsert(entries[i].node,
                                std::span<const graph::NodeId>(*stored[i]),
                                *cache_);
      }
    }
  }
  return stored;
}

bool SharedAccessGroup::ClaimFetch(graph::NodeId v,
                                   HistoryCache::Entry* entry) {
  std::unique_lock<std::mutex> lock(fetching_mu_);
  fetching_cv_.wait(lock, [&] { return !fetching_.contains(v); });
  // Re-probe: the fetch just waited out, or one that landed between the
  // caller's cache miss and this lock, may have stored `v`. Peek, not Get,
  // so the probe leaves the cache's hit/miss stats alone.
  *entry = cache_->Peek(v);
  if (*entry != nullptr) return false;
  fetching_.insert(v);
  return true;
}

void SharedAccessGroup::FinishFetch(graph::NodeId v) {
  {
    std::lock_guard<std::mutex> lock(fetching_mu_);
    fetching_.erase(v);
  }
  fetching_cv_.notify_all();
}

bool SharedAccessGroup::TryCharge() {
  if (options_.query_budget == 0) {
    charged_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  uint64_t current = charged_.load(std::memory_order_relaxed);
  while (current < options_.query_budget) {
    if (charged_.compare_exchange_weak(current, current + 1,
                                       std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

SharedAccess::SharedAccess(SharedAccessGroup* group)
    : group_(group),
      view_id_(group->next_view_id_.fetch_add(1, std::memory_order_relaxed)),
      queried_(group->backend()->num_nodes(), false) {
  HW_CHECK(group_ != nullptr);
}

void SharedAccess::RecordMissOutcome(graph::NodeId v,
                                     obs::FlightEventKind kind,
                                     uint64_t start_us) {
  const GroupObsCounters& obs = group_->obs_;
  obs::Counter* counter = obs.wire_fetches;
  const char* result = "wire";
  switch (kind) {
    case obs::FlightEventKind::kWireFetch:
      break;
    case obs::FlightEventKind::kSingleflightJoin:
      counter = obs.singleflight_joins;
      result = "join";
      break;
    case obs::FlightEventKind::kBudgetRefusal:
      counter = obs.budget_refusals;
      result = "refused";
      break;
    case obs::FlightEventKind::kError:
      counter = obs.fetch_errors;
      result = "error";
      break;
  }
  counter->Inc();
  HW_TRACE_INSTANT_ARGS(tracer_, trace_track_, "cache_probe",
                        ProbeArgs(*group_->cache_, v, result));
  obs::FlightRecorder* flight = group_->flight_;
  if (flight == nullptr) return;
  obs::FlightEvent event;
  event.node = v;
  event.actor = view_id_;
  event.kind = kind;
  event.start_us = start_us;
  event.end_us = flight->NowUs();
  flight->Record(event);
}

void SharedAccess::AccountServed(graph::NodeId v) {
  ++stats_.total_queries;
  if (queried_[v]) {
    ++stats_.cache_hits;
  } else {
    queried_[v] = true;
    ++stats_.unique_queries;
  }
}

util::Result<std::span<const graph::NodeId>> SharedAccess::Neighbors(
    graph::NodeId v) {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  const GroupObsCounters& obs = group_->obs_;
  HistoryCache::Entry entry = group_->cache_->Get(v);
  if (entry != nullptr) {
    obs.cache_hits->Inc();
    HW_TRACE_INSTANT_ARGS(tracer_, trace_track_, "cache_probe",
                          ProbeArgs(*group_->cache_, v, "hit"));
  } else {
    // Every miss is attributed to exactly one outcome counter/flight kind
    // (RecordMissOutcome) — the invariant obs_identity_test pins.
    obs.cache_misses->Inc();
    const uint64_t miss_start_us =
        group_->flight_ != nullptr ? group_->flight_->NowUs() : 0;
    util::Status status;
    obs::FlightEventKind kind = obs::FlightEventKind::kWireFetch;
    if (group_->fetcher_ != nullptr) {
      // Async miss path: the attached fetcher batches / deduplicates this
      // fetch with the other walkers' outstanding misses; budget charging
      // happens inside the fetcher, once per wire fetch.
      auto fetched = group_->fetcher_->FetchShared(v);
      if (!fetched.ok()) {
        status = fetched.status();
        kind = status.code() == util::StatusCode::kBudgetExhausted
                   ? obs::FlightEventKind::kBudgetRefusal
                   : obs::FlightEventKind::kError;
      } else {
        entry = std::move(fetched->entry);
        if (!fetched->charged_this_call) {
          kind = obs::FlightEventKind::kSingleflightJoin;
        }
      }
    } else if (!group_->ClaimFetch(v, &entry)) {
      // Synchronous miss path, another view fetched `v` meanwhile: this
      // miss joins that fetch instead of paying for its own.
      kind = obs::FlightEventKind::kSingleflightJoin;
    } else {
      // Synchronous miss path: this view claimed `v` and pays for a real
      // fetch. A refused call is not issued at all, so it leaves the charge
      // accounting untouched (same semantics as GraphAccess).
      if (!group_->TryCharge()) {
        status = util::Status::BudgetExhausted("group query budget exhausted");
        kind = obs::FlightEventKind::kBudgetRefusal;
      } else if (auto fetched = group_->backend_->FetchNeighbors(v);
                 !fetched.ok()) {
        group_->RefundCharge();
        status = fetched.status();
        kind = obs::FlightEventKind::kError;
      } else {
        entry = group_->StoreFetched(v, *fetched);
      }
      group_->FinishFetch(v);
    }
    RecordMissOutcome(v, kind, miss_start_us);
    if (!status.ok()) return status;
    if (kind == obs::FlightEventKind::kWireFetch) ++charged_fetches_;
  }
  AccountServed(v);
  retained_[retain_slot_] = entry;
  retain_slot_ = (retain_slot_ + 1) % std::size(retained_);
  return util::Result<std::span<const graph::NodeId>>(
      std::span<const graph::NodeId>(*entry));
}

util::Result<double> SharedAccess::Attribute(graph::NodeId v,
                                             attr::AttrId attr) const {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  return group_->backend_->FetchAttribute(v, attr);
}

util::Result<uint32_t> SharedAccess::SummaryDegree(graph::NodeId v) const {
  if (v >= num_nodes()) {
    return util::Status::OutOfRange("unknown node id");
  }
  return group_->backend_->FetchSummaryDegree(v);
}

void SharedAccess::ResetAccounting() {
  stats_ = QueryStats{};
  queried_.assign(group_->backend()->num_nodes(), false);
  charged_fetches_ = 0;
  for (auto& handle : retained_) handle.reset();
}

}  // namespace histwalk::access
