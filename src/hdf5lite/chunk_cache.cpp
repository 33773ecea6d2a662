#include "hdf5lite/chunk_cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace tunio::h5 {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& bypasses;
  obs::Counter& evictions;
  obs::Counter& dirty_evictions;

  static CacheMetrics& get() {
    static CacheMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new CacheMetrics{
          registry.counter("h5.chunk_cache.hits"),
          registry.counter("h5.chunk_cache.misses"),
          registry.counter("h5.chunk_cache.bypasses"),
          registry.counter("h5.chunk_cache.evictions"),
          registry.counter("h5.chunk_cache.dirty_evictions"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

ChunkCache::ChunkCache(ChunkCacheProps props, Bytes chunk_bytes)
    : props_(props), chunk_bytes_(chunk_bytes) {
  TUNIO_CHECK_MSG(chunk_bytes_ > 0, "chunk size must be positive");
  const auto by_bytes =
      static_cast<std::size_t>(props_.rdcc_nbytes / chunk_bytes_);
  max_resident_ = std::min<std::size_t>(by_bytes, props_.rdcc_nslots);
}

ChunkCache::~ChunkCache() {
  CacheMetrics& metrics = CacheMetrics::get();
  metrics.hits.add(stats_.hits);
  metrics.misses.add(stats_.misses);
  metrics.bypasses.add(stats_.bypasses);
  metrics.evictions.add(stats_.evictions);
  metrics.dirty_evictions.add(stats_.dirty_evictions);
}

bool ChunkCache::resident(const ChunkKey& key) const {
  return find(key) != kNil;
}

std::size_t ChunkCache::home_slot(const ChunkKey& key) const {
  const std::uint64_t mixed =
      (key.chunk + key.rank * 0xC2B2AE3D27D4EB4FULL) * 0x9E3779B97F4A7C15ULL;
  return static_cast<std::size_t>(mixed >> slot_shift_);
}

std::uint32_t ChunkCache::find(const ChunkKey& key) const {
  if (slots_.empty()) return kNil;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home_slot(key);; i = (i + 1) & mask) {
    const std::uint32_t id = slots_[i];
    if (id == kNil || nodes_[id].key == key) return id;
  }
}

void ChunkCache::index_insert(std::uint32_t id) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(nodes_[id].key);
  while (slots_[i] != kNil) i = (i + 1) & mask;
  slots_[i] = id;
}

void ChunkCache::index_erase(const ChunkKey& key) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home_slot(key);
  while (nodes_[slots_[hole]].key != key) hole = (hole + 1) & mask;
  // Backward shift: pull later entries of the cluster into the hole when
  // the hole lies on their probe path, so no tombstones are needed.
  for (std::size_t j = (hole + 1) & mask; slots_[j] != kNil;
       j = (j + 1) & mask) {
    const std::size_t home = home_slot(nodes_[slots_[j]].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = kNil;
}

void ChunkCache::grow_index() {
  const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(size, kNil);
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (std::uint32_t id = 0; id < nodes_.size(); ++id) index_insert(id);
}

void ChunkCache::unlink(std::uint32_t id) {
  Node& node = nodes_[id];
  (node.prev == kNil ? head_ : nodes_[node.prev].next) = node.next;
  (node.next == kNil ? tail_ : nodes_[node.next].prev) = node.prev;
}

void ChunkCache::push_front(std::uint32_t id) {
  Node& node = nodes_[id];
  node.prev = kNil;
  node.next = head_;
  (head_ == kNil ? tail_ : nodes_[head_].prev) = id;
  head_ = id;
}

void ChunkCache::move_to_front(std::uint32_t id) {
  if (id == head_) return;
  unlink(id);
  push_front(id);
}

void ChunkCache::insert(const ChunkKey& key, bool dirty,
                        CacheOutcome& outcome) {
  const bool full = nodes_.size() >= max_resident_;
  const std::uint32_t id =
      full ? tail_ : static_cast<std::uint32_t>(nodes_.size());
  if (!full) {
    nodes_.push_back(Node{key});
    if (2 * nodes_.size() > slots_.size()) {
      grow_index();  // re-inserts the new node too
    } else {
      index_insert(id);
    }
  } else {
    // Full: the LRU victim's node takes the incoming chunk.
    Node& victim = nodes_[id];
    ++stats_.evictions;
    if (victim.dirty) {
      ++stats_.dirty_evictions;
      outcome.evicted_dirty = victim.key;
    }
    index_erase(victim.key);
    unlink(id);
    victim.key = key;
    index_insert(id);
  }
  nodes_[id].dirty = dirty;
  push_front(id);
}

CacheOutcome ChunkCache::touch_write(const ChunkKey& key, Bytes covered_bytes,
                                     bool chunk_was_allocated) {
  CacheOutcome outcome;
  if (max_resident_ == 0) {
    // Chunk does not fit in the cache at all: direct I/O.
    ++stats_.bypasses;
    outcome.bypass = true;
    outcome.needs_preread =
        chunk_was_allocated && covered_bytes < chunk_bytes_;
    return outcome;
  }
  const std::uint32_t id = find(key);
  if (id != kNil) {
    ++stats_.hits;
    outcome.hit = true;
    nodes_[id].dirty = true;
    move_to_front(id);
    return outcome;
  }
  ++stats_.misses;
  outcome.needs_preread = chunk_was_allocated && covered_bytes < chunk_bytes_;
  insert(key, /*dirty=*/true, outcome);
  return outcome;
}

CacheOutcome ChunkCache::touch_read(const ChunkKey& key) {
  CacheOutcome outcome;
  if (max_resident_ == 0) {
    ++stats_.bypasses;
    outcome.bypass = true;
    return outcome;
  }
  const std::uint32_t id = find(key);
  if (id != kNil) {
    ++stats_.hits;
    outcome.hit = true;
    move_to_front(id);
    return outcome;
  }
  ++stats_.misses;
  insert(key, /*dirty=*/false, outcome);
  return outcome;
}

std::vector<ChunkKey> ChunkCache::flush_dirty() {
  std::vector<ChunkKey> dirty;
  for (Node& node : nodes_) {
    if (node.dirty) {
      dirty.push_back(node.key);
      node.dirty = false;
    }
  }
  std::sort(dirty.begin(), dirty.end(), [](const ChunkKey& a, const ChunkKey& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.chunk < b.chunk;
  });
  return dirty;
}

}  // namespace tunio::h5
