#include "net/request_pipeline.h"

#include <algorithm>
#include <cmath>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::net {

namespace {

// The one place the per-tenant -> aggregate counter mapping lives; used by
// both the RemoveTenant fold and stats().
void AccumulateTenantStats(RequestPipelineStats& aggregate,
                           const TenantPipelineStats& tenant) {
  aggregate.submitted += tenant.submitted;
  aggregate.dedup_joins += tenant.dedup_joins;
  aggregate.late_hits += tenant.late_hits;
  aggregate.wire_requests += tenant.wire_requests;
  aggregate.wire_items += tenant.wire_items;
  aggregate.budget_refusals += tenant.budget_refusals;
}

}  // namespace

// ---- TenantQueue ------------------------------------------------------------

TenantQueue::TenantQueue(PipelineSchedulerPolicy policy, uint32_t num_shards)
    : policy_(policy), num_shards_(num_shards == 0 ? 1 : num_shards) {}

TenantId TenantQueue::AddTenant(uint32_t weight) {
  Tenant tenant;
  tenant.weight = weight == 0 ? 1 : weight;
  tenant.credits = tenant.weight;
  tenant.shard_queues.resize(num_shards_);
  tenants_.push_back(std::move(tenant));
  return static_cast<TenantId>(tenants_.size() - 1);
}

void TenantQueue::ReuseTenant(TenantId tenant, uint32_t weight) {
  HW_CHECK(tenant < tenants_.size());
  Tenant& t = tenants_[tenant];
  HW_CHECK(t.queued == 0);
  t.weight = weight == 0 ? 1 : weight;
  t.credits = t.weight;
  t.next_shard = 0;
}

void TenantQueue::Enqueue(TenantId tenant, graph::NodeId v) {
  HW_CHECK(tenant < tenants_.size());
  Tenant& t = tenants_[tenant];
  uint32_t shard = access::HistoryCache::ShardOf(v, num_shards_);
  t.shard_queues[shard].push_back(
      QueuedId{v, drained_items_, next_arrival_++});
  ++t.queued;
  ++queued_total_;
}

uint64_t TenantQueue::queued(TenantId tenant) const {
  HW_CHECK(tenant < tenants_.size());
  return tenants_[tenant].queued;
}

bool TenantQueue::PickBatch(uint32_t max_batch, Batch* out) {
  if (max_batch == 0) max_batch = 1;
  out->ids.clear();
  out->waits.clear();
  return policy_ == PipelineSchedulerPolicy::kFairWeighted
             ? PickFair(max_batch, out)
             : PickFifo(max_batch, out);
}

bool TenantQueue::PickFair(uint32_t max_batch, Batch* out) {
  if (queued_total_ == 0) return false;
  // Two rounds: the first may find every tenant with work out of credits,
  // in which case credits refill and the second round must succeed.
  for (int round = 0; round < 2; ++round) {
    for (size_t probe = 0; probe < tenants_.size(); ++probe) {
      const uint32_t ti =
          static_cast<uint32_t>((cursor_ + probe) % tenants_.size());
      Tenant& tenant = tenants_[ti];
      if (tenant.queued == 0 || tenant.credits == 0) continue;
      --tenant.credits;
      cursor_ = static_cast<uint32_t>((ti + 1) % tenants_.size());
      for (uint32_t s = 0; s < num_shards_; ++s) {
        const uint32_t shard = (tenant.next_shard + s) % num_shards_;
        if (tenant.shard_queues[shard].empty()) continue;
        tenant.next_shard = (shard + 1) % num_shards_;
        DrainShard(ti, shard, max_batch, out);
        return true;
      }
      HW_CHECK(false);  // tenant.queued > 0 implies a non-empty shard
    }
    for (Tenant& tenant : tenants_) tenant.credits = tenant.weight;
  }
  HW_CHECK(false);  // queued_total_ > 0 implies a pick after refill
  return false;
}

bool TenantQueue::PickFifo(uint32_t max_batch, Batch* out) {
  if (queued_total_ == 0) return false;
  uint32_t best_tenant = 0;
  uint32_t best_shard = 0;
  uint64_t best_arrival = UINT64_MAX;
  for (uint32_t ti = 0; ti < tenants_.size(); ++ti) {
    const Tenant& tenant = tenants_[ti];
    if (tenant.queued == 0) continue;
    for (uint32_t shard = 0; shard < num_shards_; ++shard) {
      const std::deque<QueuedId>& queue = tenant.shard_queues[shard];
      if (queue.empty()) continue;
      if (queue.front().arrival < best_arrival) {
        best_arrival = queue.front().arrival;
        best_tenant = ti;
        best_shard = shard;
      }
    }
  }
  DrainShard(best_tenant, best_shard, max_batch, out);
  return true;
}

void TenantQueue::DrainShard(TenantId t, uint32_t shard, uint32_t max_batch,
                             Batch* out) {
  Tenant& tenant = tenants_[t];
  std::deque<QueuedId>& queue = tenant.shard_queues[shard];
  const size_t take = std::min<size_t>(max_batch, queue.size());
  out->tenant = t;
  out->ids.reserve(take);
  out->waits.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const QueuedId& id = queue.front();
    out->ids.push_back(id.v);
    out->waits.push_back(drained_items_ - id.drained_at_enqueue);
    queue.pop_front();
  }
  tenant.queued -= take;
  queued_total_ -= take;
  drained_items_ += take;
}

// ---- RequestPipeline --------------------------------------------------------

RequestPipeline::RequestPipeline(RequestPipelineOptions options)
    : options_(options) {
  if (options_.depth == 0) options_.depth = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (options_.tracer != nullptr) {
    // Registered at construction so the track id is fixed by wiring
    // order, not by which caller emits first.
    trace_track_ = options_.tracer->RegisterTrack("pipeline");
  }
}

RequestPipeline::RequestPipeline(access::SharedAccessGroup* group,
                                 RequestPipelineOptions options)
    : RequestPipeline(options) {
  HW_CHECK(group != nullptr);
  AddTenant(group, /*weight=*/1);
}

RequestPipeline::~RequestPipeline() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  // Every queued id belongs to a blocked creator that runs (or is handed)
  // its batch, so waiting out the active calls drains the queue too.
  idle_cv_.wait(lock, [this] { return active_call_total_ == 0; });
}

TenantId RequestPipeline::AddTenant(access::SharedAccessGroup* group,
                                    uint32_t weight) {
  HW_CHECK(group != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_ == nullptr) {
    // Batching locality follows the first tenant's shard geometry; in a
    // service every tenant shares one cache, so they all agree.
    num_shards_ = group->cache().num_shards();
    queue_ = std::make_unique<TenantQueue>(options_.scheduler, num_shards_);
  }
  if (!free_slots_.empty()) {
    // Recycle a removed tenant's slot so a long-lived pipeline serving a
    // stream of sessions stays O(concurrent tenants), not O(ever seen).
    const TenantId id = free_slots_.back();
    free_slots_.pop_back();
    tenants_[id]->group = group;
    queue_->ReuseTenant(id, weight);
    return id;
  }
  auto tenant = std::make_unique<Tenant>();
  tenant->group = group;
  tenant->fetcher.pipeline = this;
  tenants_.push_back(std::move(tenant));
  const TenantId id = queue_->AddTenant(weight);
  HW_CHECK(id == tenants_.size() - 1);
  tenants_[id]->fetcher.tenant = id;
  return id;
}

void RequestPipeline::RemoveTenant(TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  HW_CHECK(tenants_[tenant]->group != nullptr);  // double remove
  // Quiescence: no FetchSharedFor call is inside this tenant (queued,
  // blocked on any flight, or retrying) — a session whose walkers have
  // all returned satisfies this. Implies the queue is empty and no
  // pending flight was created by it.
  HW_CHECK(tenants_[tenant]->active_calls == 0);
  HW_CHECK(queue_->queued(tenant) == 0);
  // Fold the tenant's counters into the retired aggregate (so stats()
  // stays cumulative and monotone across slot reuse) and clear the
  // per-tenant view.
  AccumulateTenantStats(retired_, tenants_[tenant]->stats);
  tenants_[tenant]->stats = TenantPipelineStats{};
  tenants_[tenant]->group = nullptr;
  free_slots_.push_back(tenant);
}

access::AsyncFetcher* RequestPipeline::tenant_fetcher(TenantId tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  return &tenants_[tenant]->fetcher;
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchShared(
    graph::NodeId v) {
  return FetchSharedFor(/*tenant=*/0, v);
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchSharedFor(
    TenantId tenant, graph::NodeId v) {
  std::unique_lock<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  // Bracket the whole call (joins, retries and the batches it runs) in the
  // tenant's active-call count so RemoveTenant's quiescence check is
  // complete and the destructor can wait the call out.
  Tenant& t = *tenants_[tenant];
  ++t.active_calls;
  ++active_call_total_;
  auto result = FetchLocked(lock, tenant, v);
  --t.active_calls;
  if (--active_call_total_ == 0 && stopping_) idle_cv_.notify_all();
  return result;
}

util::Result<access::AsyncFetcher::Fetched> RequestPipeline::FetchLocked(
    std::unique_lock<std::mutex>& lock, TenantId tenant, graph::NodeId v) {
  Tenant& t = *tenants_[tenant];
  while (true) {
    if (stopping_) {
      // Destruction in progress: refuse fresh submits (this also stops
      // budget-refusal retries from re-queueing).
      return util::Status::Internal("pipeline destroyed");
    }
    HW_CHECK(t.group != nullptr);
    std::shared_ptr<Flight> flight;
    bool creator = false;
    TenantQueue::Batch batch;
    access::SharedAccessGroup* batch_group = nullptr;
    {
      HW_PROF_SCOPE("pipeline/enqueue");
      const uint64_t key = PendingKey(tenant, v);
      auto it = pending_.find(key);
      if (it != pending_.end()) {
        // Singleflight: join the request already in flight (possibly
        // another tenant's — the shared cache serves every waiter).
        ++t.stats.dedup_joins;
        HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_,
                              "singleflight_join",
                              "\"node\":" + std::to_string(v) +
                                  ",\"tenant\":" + std::to_string(tenant));
        flight = it->second;
      } else {
        // Did a fetch complete between the caller's cache miss and this
        // submit? Probe with Contains() first because it has no stats side
        // effects: the caller already recorded this lookup's miss, and a
        // plain Get() here would double-count a miss on every ordinary
        // submit. Get() runs only on the rare hit path (and can still race
        // an eviction, in which case we fall through and fetch for real).
        if (t.group->cache().Contains(v)) {
          if (access::HistoryCache::Entry entry = t.group->cache().Get(v)) {
            ++t.stats.late_hits;
            HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "late_hit",
                                  "\"node\":" + std::to_string(v) +
                                      ",\"tenant\":" + std::to_string(tenant));
            return access::AsyncFetcher::Fetched{std::move(entry),
                                                 /*charged_this_call=*/false};
          }
        }
        flight = std::make_shared<Flight>();
        pending_.emplace(key, flight);
        queue_->Enqueue(tenant, v);
        ++t.stats.submitted;
        HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "enqueue",
                              "\"node\":" + std::to_string(v) +
                                  ",\"tenant\":" + std::to_string(tenant));
        t.stats.max_queue_depth =
            std::max(t.stats.max_queue_depth, queue_->queued(tenant));
        global_max_queue_depth_ =
            std::max(global_max_queue_depth_, queue_->queued());
        queue_depth_hist_.Record(queue_->queued());
        creator = true;
        // A free slot means nothing else is queued (a freeing slot hands
        // queued work straight on), so this pick is this caller's own id.
        if (in_flight_ < options_.depth) {
          ++in_flight_;
          batch_group = PickLocked(&batch);
        }
      }
    }
    if (creator) {
      // Run this caller's batch, or one handed to it when a slot frees
      // with its id at the head of the queue, until its own flight lands.
      while (true) {
        if (batch_group != nullptr) {
          ProcessBatch(lock, batch, batch_group);
          batch_group = nullptr;
        }
        if (flight->done) break;
        flight->creator_cv.wait(lock, [&] {
          return flight->done || flight->handoff_group != nullptr;
        });
        if (flight->handoff_group != nullptr) {
          batch = std::move(flight->handoff);
          batch_group = flight->handoff_group;
          flight->handoff_group = nullptr;
        }
      }
    } else {
      flight->joiner_cv.wait(lock, [&] { return flight->done; });
    }
    const WireReply& reply = flight->reply;
    if (reply.status.ok()) {
      return access::AsyncFetcher::Fetched{reply.entry, creator};
    }
    // A joined flight refused by ANOTHER tenant's budget says nothing
    // about this tenant's own quota: the pending entry is gone, so
    // resubmit — this call becomes the creator (or finds the node cached)
    // and gets an answer charged against the right budget. A creator's
    // refusal, or a join on a same-tenant flight, is definitive.
    if (creator || reply.status.code() != util::StatusCode::kBudgetExhausted ||
        reply.creator == tenant) {
      return reply.status;
    }
  }
}

access::SharedAccessGroup* RequestPipeline::PickLocked(
    TenantQueue::Batch* batch) {
  HW_CHECK(queue_->PickBatch(options_.max_batch, batch));
  Tenant& tenant = *tenants_[batch->tenant];
  HW_CHECK(tenant.group != nullptr);
  // Wait accounting happens at drain time, under the same lock as the
  // pick, so histograms are exact whatever the depth. The same waits feed
  // the group's scraped histogram.
  for (uint64_t wait : batch->waits) {
    tenant.stats.wait.Record(wait);
    tenant.group->obs().pipeline_wait->Observe(wait);
  }
  return tenant.group;
}

void RequestPipeline::ProcessBatch(std::unique_lock<std::mutex>& lock,
                                   const TenantQueue::Batch& batch,
                                   access::SharedAccessGroup* group) {
  HW_PROF_SCOPE("pipeline/batch");
  lock.unlock();
  // 'X' complete events (not B/E spans) so concurrent callers' batches
  // can't corrupt span nesting on the shared pipeline track.
  const uint64_t batch_start_us =
      options_.tracer != nullptr ? options_.tracer->NowUs() : 0;
  // Claim the tenant's budget per node before touching the wire; refused
  // ids never issue (same no-accounting semantics as the sync miss path).
  std::vector<graph::NodeId> to_fetch;
  std::vector<graph::NodeId> refused;
  to_fetch.reserve(batch.ids.size());
  for (graph::NodeId v : batch.ids) {
    if (group->TryCharge()) {
      to_fetch.push_back(v);
    } else {
      refused.push_back(v);
    }
  }

  std::vector<std::pair<graph::NodeId, WireReply>> replies;
  replies.reserve(batch.ids.size());
  if (!to_fetch.empty()) {
    auto results = group->backend()->FetchNeighborsBatch(to_fetch);
    // Deliver the whole batch through the group's batch funnel: the ids
    // were drained from ONE shard's queue, so every successful response
    // lands in the cache under a single exclusive-lock acquisition
    // (HistoryCache::PutBatch) instead of one Put per id, and an attached
    // HistoryJournal (durable store) still sees each new insert once.
    std::vector<access::HistoryCache::ImportEntry> imports;
    std::vector<size_t> import_pos;  // index into to_fetch per import
    imports.reserve(to_fetch.size());
    import_pos.reserve(to_fetch.size());
    for (size_t i = 0; i < to_fetch.size(); ++i) {
      if (results[i].ok()) {
        imports.push_back({to_fetch[i], *results[i]});
        import_pos.push_back(i);
      } else {
        group->RefundCharge();
        replies.emplace_back(
            to_fetch[i],
            WireReply{nullptr, results[i].status(), batch.tenant});
      }
    }
    std::vector<access::HistoryCache::Entry> stored =
        group->StoreFetchedBatch(imports);
    for (size_t j = 0; j < imports.size(); ++j) {
      replies.emplace_back(
          to_fetch[import_pos[j]],
          WireReply{std::move(stored[j]), util::Status::Ok(), batch.tenant});
    }
  }
  for (graph::NodeId v : refused) {
    replies.emplace_back(
        v, WireReply{nullptr,
                     util::Status::BudgetExhausted(
                         "tenant query budget exhausted"),
                     batch.tenant});
  }

  // Fulfil the flights under the lock and wake their waiters after
  // releasing it, so a woken caller never blocks straight back on mu_.
  std::vector<std::shared_ptr<Flight>> fulfilled;
  fulfilled.reserve(replies.size());
  std::shared_ptr<Flight> next_runner;  // creator handed the freed slot
  lock.lock();
  Tenant& tenant = *tenants_[batch.tenant];
  if (!to_fetch.empty()) {
    ++tenant.stats.wire_requests;
    tenant.stats.wire_items += to_fetch.size();
  }
  tenant.stats.budget_refusals += refused.size();
  if (options_.tracer != nullptr) {
    const uint64_t now_us = options_.tracer->NowUs();
    options_.tracer->Complete(
        trace_track_, "batch", batch_start_us, now_us - batch_start_us,
        "\"tenant\":" + std::to_string(batch.tenant) +
            ",\"items\":" + std::to_string(to_fetch.size()) +
            ",\"refused\":" + std::to_string(refused.size()));
  }
  for (auto& [v, reply] : replies) {
    auto it = pending_.find(PendingKey(batch.tenant, v));
    if (it != pending_.end()) {
      it->second->reply = std::move(reply);
      it->second->done = true;
      fulfilled.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  // "deliver" is emitted under mu_, so BEFORE any waiter can see its
  // reply: a woken walker may emit its next enqueue immediately, and
  // tracing after the wake would race that event on this track and break
  // the serial stream's byte-determinism.
  HW_TRACE_INSTANT_ARGS(options_.tracer, trace_track_, "deliver",
                        "\"tenant\":" + std::to_string(batch.tenant) +
                            ",\"replies\":" +
                            std::to_string(fulfilled.size()));
  // Pass the depth slot on: the next batch goes to the creator of its
  // first id, which is blocked on that flight and runs the batch itself.
  if (queue_->queued() > 0) {
    TenantQueue::Batch next;
    access::SharedAccessGroup* next_group = PickLocked(&next);
    auto it = pending_.find(PendingKey(next.tenant, next.ids.front()));
    HW_CHECK(it != pending_.end());
    next_runner = it->second;
    next_runner->handoff = std::move(next);
    next_runner->handoff_group = next_group;
  } else {
    --in_flight_;
  }
  lock.unlock();
  {
    HW_PROF_SCOPE("pipeline/deliver");
    for (const std::shared_ptr<Flight>& flight : fulfilled) {
      flight->creator_cv.notify_one();
      flight->joiner_cv.notify_all();
    }
    if (next_runner != nullptr) next_runner->creator_cv.notify_one();
  }
  lock.lock();
}

RequestPipelineStats RequestPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RequestPipelineStats aggregate = retired_;
  for (const std::unique_ptr<Tenant>& tenant : tenants_) {
    AccumulateTenantStats(aggregate, tenant->stats);
  }
  aggregate.queue_depth = queue_ == nullptr ? 0 : queue_->queued();
  aggregate.max_queue_depth = global_max_queue_depth_;
  aggregate.depth = queue_depth_hist_;
  return aggregate;
}

TenantPipelineStats RequestPipeline::tenant_stats(TenantId tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  HW_CHECK(tenant < tenants_.size());
  TenantPipelineStats stats = tenants_[tenant]->stats;
  stats.queue_depth = queue_->queued(tenant);
  return stats;
}

size_t RequestPipeline::num_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.size();
}

}  // namespace histwalk::net
