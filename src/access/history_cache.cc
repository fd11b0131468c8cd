#include "access/history_cache.h"

#include <mutex>
#include <shared_mutex>

#include "obs/profiler.h"
#include "util/check.h"

namespace histwalk::access {

HistoryCache::HistoryCache(HistoryCacheOptions options) : options_(options) {
  num_shards_ = options_.num_shards == 0 ? 1 : options_.num_shards;
  shards_pow2_ = (num_shards_ & (num_shards_ - 1)) == 0;
  if (options_.capacity == 0) {
    shard_capacity_ = 0;
  } else {
    // Ceiling split so num_shards * shard_capacity >= capacity; a skewed
    // key distribution can therefore hold slightly more than `capacity` in
    // total, never less per shard than its fair share.
    shard_capacity_ = (options_.capacity + num_shards_ - 1) / num_shards_;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }
  shards_ = std::make_unique<Shard[]>(num_shards_);
  if (options_.profile_locks) {
    for (uint32_t s = 0; s < num_shards_; ++s) {
      shards_[s].mu.attach_counters(&shards_[s].lock_counters);
    }
  }
}

void HistoryCache::FlatIndex::InsertNoGrow(graph::NodeId key, Slot* slot) {
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(key, mask);
  while (cells_[i].slot != nullptr) i = (i + 1) & mask;
  cells_[i] = Cell{key, slot};
}

void HistoryCache::FlatIndex::Insert(graph::NodeId key, Slot* slot) {
  // Keep load under 3/4 so probe chains stay short and Find always
  // terminates on an empty cell.
  if (cells_.empty() || (size_ + 1) * 4 > cells_.size() * 3) Grow();
  InsertNoGrow(key, slot);
  ++size_;
}

void HistoryCache::FlatIndex::Grow() {
  std::vector<Cell> old = std::move(cells_);
  cells_.assign(old.empty() ? 64 : old.size() * 2, Cell{0, nullptr});
  for (const Cell& cell : old) {
    if (cell.slot != nullptr) InsertNoGrow(cell.key, cell.slot);
  }
}

bool HistoryCache::FlatIndex::Erase(graph::NodeId key) {
  if (cells_.empty()) return false;
  const uint32_t mask = static_cast<uint32_t>(cells_.size()) - 1;
  uint32_t i = Home(key, mask);
  while (true) {
    if (cells_[i].slot == nullptr) return false;
    if (cells_[i].key == key) break;
    i = (i + 1) & mask;
  }
  // Backward-shift deletion: walk the probe chain after the hole and pull
  // back every cell whose home position does not lie in the cyclic
  // interval (i, j] — i.e. every cell the hole would otherwise cut off
  // from its home.
  uint32_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (cells_[j].slot == nullptr) break;
    const uint32_t h = Home(cells_[j].key, mask);
    const bool movable = (j > i) ? (h <= i || h > j) : (h <= i && h > j);
    if (movable) {
      cells_[i] = cells_[j];
      i = j;
    }
  }
  cells_[i].slot = nullptr;
  --size_;
  return true;
}

uint32_t HistoryCache::ShardOf(graph::NodeId v, uint32_t num_shards) {
  HW_DCHECK(num_shards > 0);
  // Fibonacci hashing: spreads consecutive node ids across shards while
  // staying bit-reproducible everywhere.
  uint64_t h = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<uint32_t>(h % num_shards);
}

uint64_t HistoryCache::EntryBytes(
    const util::ArrayBlock<graph::NodeId>& block) {
  // The one refcounted payload block plus the per-entry bookkeeping (index
  // slot, ring slot and its unique_ptr); approximate, but monotone in list
  // length and stable across runs.
  return block.allocated_bytes() + sizeof(Slot) + sizeof(void*) +
         sizeof(graph::NodeId) + sizeof(uint32_t);
}

HistoryCache::Entry HistoryCache::Get(graph::NodeId v) {
  HW_PROF_SCOPE("cache/get");
  Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  Slot* slot = shard.index.Find(v);
  if (slot == nullptr) {
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    return Entry();
  }
  // The whole recency update: one relaxed store, no exclusive lock, no
  // list manipulation. The sweeping hand (under the exclusive lock) clears
  // it and grants the second chance.
  slot->ref.store(1, std::memory_order_relaxed);
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  return slot->entry;
}

void HistoryCache::GetBatch(std::span<const graph::NodeId> ids, Entry* out) {
  HW_PROF_SCOPE("cache/get_batch");
  const size_t n = ids.size();
  if (n == 0) return;
  // Per-shard lookup body, run under one shared acquisition per shard.
  auto lookup = [](Shard& shard, graph::NodeId id, Entry& slot_out,
                   uint64_t& hits, uint64_t& misses) {
    Slot* slot = shard.index.Find(id);
    if (slot == nullptr) {
      ++misses;
      slot_out = Entry();
      return;
    }
    slot->ref.store(1, std::memory_order_relaxed);
    ++hits;
    slot_out = slot->entry;
  };
  if (num_shards_ == 1) {
    Shard& shard = shards_[0];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    for (size_t i = 0; i < n; ++i) lookup(shard, ids[i], out[i], hits, misses);
    if (hits != 0) shard.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) shard.misses.fetch_add(misses, std::memory_order_relaxed);
    return;
  }
  // Group positions by shard so each touched shard's lock is taken once.
  // In-place counting sort over thread-local scratch: this is the walkers'
  // hot path, so at steady state a batch allocates nothing. shard_of
  // caches the hash from the counting pass as one byte per id; after the
  // placement pass, offsets[s] has been advanced to the END of shard s's
  // run, so the run for shard s is [s == 0 ? 0 : offsets[s-1], offsets[s]).
  thread_local std::vector<uint32_t> order;
  thread_local std::vector<uint8_t> shard_of;
  thread_local std::vector<uint32_t> offsets;
  order.resize(n);
  shard_of.resize(n);
  offsets.assign(num_shards_, 0);
  if (num_shards_ <= 256) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t s = ShardIndexOf(ids[i]);
      shard_of[i] = static_cast<uint8_t>(s);
      ++offsets[s];
    }
  } else {
    // Byte cache can't hold the shard id; recompute in the placement pass.
    for (size_t i = 0; i < n; ++i) ++offsets[ShardIndexOf(ids[i])];
  }
  uint32_t running = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t count = offsets[s];
    offsets[s] = running;
    running += count;
  }
  if (num_shards_ <= 256) {
    for (size_t i = 0; i < n; ++i) {
      order[offsets[shard_of[i]]++] = static_cast<uint32_t>(i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      order[offsets[ShardIndexOf(ids[i])]++] = static_cast<uint32_t>(i);
    }
  }
  thread_local std::vector<Slot*> run;
  run.resize(n);
  uint32_t begin = 0;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const uint32_t end = offsets[s];
    if (begin == end) continue;
    Shard& shard = shards_[s];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    uint64_t hits = 0, misses = 0;
    // Two passes under one acquisition: resolve every probe first,
    // prefetching the payload block whose header the refcount bump in the
    // commit pass will write — the probes overlap the block-line fills.
    for (uint32_t j = begin; j < end; ++j) {
      Slot* slot = shard.index.Find(ids[order[j]]);
      run[j] = slot;
      if (slot != nullptr) __builtin_prefetch(slot->entry.get(), 1, 3);
    }
    for (uint32_t j = begin; j < end; ++j) {
      Slot* slot = run[j];
      const uint32_t i = order[j];
      if (slot == nullptr) {
        ++misses;
        out[i] = Entry();
        continue;
      }
      slot->ref.store(1, std::memory_order_relaxed);
      ++hits;
      out[i] = slot->entry;
    }
    if (hits != 0) shard.hits.fetch_add(hits, std::memory_order_relaxed);
    if (misses != 0) shard.misses.fetch_add(misses, std::memory_order_relaxed);
    begin = end;
  }
}

HistoryCache::Entry HistoryCache::PutLocked(
    Shard& shard, graph::NodeId v, std::span<const graph::NodeId> neighbors,
    bool* inserted) {
  Slot* resident = shard.index.Find(v);
  if (resident != nullptr) {
    // Lost a fetch race with another walker; keep the resident entry and
    // treat the duplicate store as a touch.
    if (inserted != nullptr) *inserted = false;
    resident->ref.store(1, std::memory_order_relaxed);
    return resident->entry;
  }
  Entry entry = Entry::Copy(neighbors);
  const uint64_t entry_bytes = EntryBytes(*entry);
  if (shard_capacity_ != 0 && shard.ring.size() >= shard_capacity_) {
    // CLOCK sweep: advance the hand, clearing reference bits, until an
    // unreferenced victim turns up. Terminates within one full lap plus
    // one step: every visited slot is cleared, so revisiting the start
    // finds it unreferenced.
    HW_PROF_SCOPE("cache/sweep");
    const uint32_t ring_size = static_cast<uint32_t>(shard.ring.size());
    uint32_t pos = shard.hand;
    uint64_t steps = 0;
    while (shard.ring[pos]->ref.exchange(0, std::memory_order_relaxed) != 0) {
      pos = (pos + 1) % ring_size;
      ++steps;
    }
    shard.sweep.Record(steps);
    Slot& victim = *shard.ring[pos];
    shard.index.Erase(victim.key);
    shard.bytes -= victim.bytes;
    ++shard.evictions;
    // New entries start unreferenced: untouched-since-insert entries are
    // reclaimable after one lap, same as an un-hit LRU entry.
    victim.key = v;
    victim.entry = std::move(entry);
    victim.bytes = entry_bytes;
    shard.index.Insert(v, &victim);
    shard.hand = (pos + 1) % ring_size;
    shard.bytes += entry_bytes;
    ++shard.insertions;
    if (inserted != nullptr) *inserted = true;
    return victim.entry;
  }
  auto slot = std::make_unique<Slot>();
  slot->key = v;
  slot->entry = std::move(entry);
  slot->bytes = entry_bytes;
  Slot& stored = *slot;
  shard.index.Insert(v, &stored);
  shard.ring.push_back(std::move(slot));
  shard.bytes += entry_bytes;
  ++shard.insertions;
  if (inserted != nullptr) *inserted = true;
  return stored.entry;
}

HistoryCache::Entry HistoryCache::Put(graph::NodeId v,
                                      std::span<const graph::NodeId> neighbors,
                                      bool* inserted) {
  HW_PROF_SCOPE("cache/put");
  Shard& shard = shards_[ShardIndexOf(v)];
  std::unique_lock<util::RwSpinLock> lock(shard.mu);
  return PutLocked(shard, v, neighbors, inserted);
}

std::vector<HistoryCache::ExportedEntry> HistoryCache::ExportShard(
    uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  std::vector<ExportedEntry> out;
  // Shared suffices: the export mutates nothing, and shared mode excludes
  // writers, which is all consistency needs.
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  const size_t ring_size = shard.ring.size();
  out.reserve(ring_size);
  // Walk the ring in clock order starting at the hand, so the export reads
  // next-eviction-candidate first (the Put() replay order that reconstructs
  // the ring with the hand normalized to slot 0).
  for (size_t i = 0; i < ring_size; ++i) {
    const Slot& slot = *shard.ring[(shard.hand + i) % ring_size];
    out.push_back(ExportedEntry{slot.key, slot.entry});
  }
  return out;
}

uint64_t HistoryCache::PutBatch(std::span<const ImportEntry> entries,
                                Entry* out_entries, bool* inserted) {
  uint64_t new_entries = 0;
  auto put = [&](Shard& shard, size_t i) {
    bool was_inserted = false;
    Entry entry = PutLocked(shard, entries[i].node, entries[i].neighbors,
                            &was_inserted);
    if (was_inserted) ++new_entries;
    if (out_entries != nullptr) out_entries[i] = std::move(entry);
    if (inserted != nullptr) inserted[i] = was_inserted;
  };
  if (entries.size() == 1) {
    // The common pipeline batch: no grouping, straight in under the one
    // shard lock it needs.
    Shard& shard = shards_[ShardIndexOf(entries[0].node)];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    put(shard, 0);
    return new_entries;
  }
  // Group by shard first so each touched shard's exclusive lock is taken
  // once, then insert each group in its original order (preserving clock
  // order reconstruction for per-shard inputs).
  std::vector<std::vector<size_t>> by_shard(num_shards_);
  for (size_t i = 0; i < entries.size(); ++i) {
    by_shard[ShardIndexOf(entries[i].node)].push_back(i);
  }
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = shards_[s];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    for (size_t i : by_shard[s]) put(shard, i);
  }
  return new_entries;
}

bool HistoryCache::Contains(graph::NodeId v) const {
  const Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  // Deliberately no counter bumps and no reference-bit mark: Contains must
  // not make an entry look recently used or skew hit-rate stats.
  return shard.index.Find(v) != nullptr;
}

HistoryCache::Entry HistoryCache::Peek(graph::NodeId v) const {
  const Shard& shard = shards_[ShardIndexOf(v)];
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  const Slot* slot = shard.index.Find(v);
  return slot == nullptr ? Entry() : slot->entry;
}

void HistoryCache::Clear() {
  for (uint32_t s = 0; s < num_shards_; ++s) {
    Shard& shard = shards_[s];
    std::unique_lock<util::RwSpinLock> lock(shard.mu);
    shard.index.Clear();
    shard.ring.clear();
    shard.hand = 0;
    shard.bytes = 0;
  }
}

HistoryCacheShardHeat HistoryCache::shard_heat(uint32_t shard_index) const {
  HW_CHECK(shard_index < num_shards_);
  const Shard& shard = shards_[shard_index];
  HistoryCacheShardHeat heat;
  std::shared_lock<util::RwSpinLock> lock(shard.mu);
  heat.hits = shard.hits.load(std::memory_order_relaxed);
  heat.misses = shard.misses.load(std::memory_order_relaxed);
  heat.insertions = shard.insertions;
  heat.evictions = shard.evictions;
  heat.entries = shard.index.size();
  heat.bytes = shard.bytes;
  heat.sweep = shard.sweep;
  const util::RwSpinLockCounters& lc = shard.lock_counters;
  heat.lock_shared_acquires =
      lc.shared_acquires.load(std::memory_order_relaxed);
  heat.lock_shared_contended =
      lc.shared_contended.load(std::memory_order_relaxed);
  heat.lock_exclusive_acquires =
      lc.exclusive_acquires.load(std::memory_order_relaxed);
  heat.lock_exclusive_contended =
      lc.exclusive_contended.load(std::memory_order_relaxed);
  return heat;
}

HistoryCacheStats HistoryCache::stats() const {
  HistoryCacheStats total;
  for (uint32_t s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[s];
    std::shared_lock<util::RwSpinLock> lock(shard.mu);
    total.hits += shard.hits.load(std::memory_order_relaxed);
    total.misses += shard.misses.load(std::memory_order_relaxed);
    total.insertions += shard.insertions;
    total.evictions += shard.evictions;
    total.entries += shard.index.size();
    total.bytes += shard.bytes;
  }
  return total;
}

}  // namespace histwalk::access
