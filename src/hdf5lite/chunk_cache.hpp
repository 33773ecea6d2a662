// LRU chunk cache simulation (HDF5's rdcc).
//
// HDF5 stages chunked-dataset raw data in a per-dataset cache of
// `rdcc_nbytes`; whole chunks are evicted (and written back when dirty)
// under LRU. The cache turns repeated partial-chunk accesses into a
// single chunk-sized write at eviction — exactly the behaviour the
// `chunk_cache` tuning parameter controls. A chunk larger than the cache
// bypasses it entirely, which is HDF5's real behaviour and the main
// performance cliff this parameter creates.
//
// The cache tracks *which* chunk of *which rank* is resident; the caller
// translates evictions into simulated I/O.
//
// A replayed evaluation at 128 ranks touches thousands of chunks, so the
// cache is flat: a node array of at most `max_resident` entries linked
// into an LRU list by index, and an open-addressing index over it (linear
// probing, power-of-two size, backward-shift delete). A full cache reuses
// its LRU victim's node for the incoming chunk; after warm-up nothing
// allocates. The resident count never exceeds `max_resident`, so a miss
// evicts at most one victim.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "hdf5lite/properties.hpp"

namespace tunio::h5 {

/// Identity of a cached chunk: owning rank and chunk index.
struct ChunkKey {
  unsigned rank = 0;
  std::uint64_t chunk = 0;

  bool operator==(const ChunkKey&) const = default;
};

/// Outcome of touching a chunk in the cache.
struct CacheOutcome {
  bool hit = false;          ///< chunk was already resident
  bool bypass = false;       ///< chunk can't fit; caller does direct I/O
  bool needs_preread = false;///< partial access to a non-resident chunk
  /// Dirty chunk evicted to make room; the caller writes it back.
  std::optional<ChunkKey> evicted_dirty;
};

struct ChunkCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bypasses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;
};

class ChunkCache {
 public:
  ChunkCache(ChunkCacheProps props, Bytes chunk_bytes);
  /// Flushes accumulated stats into the global metrics registry
  /// (`h5.chunk_cache.*` series).
  ~ChunkCache();

  /// Touches `key` for a write covering `covered_bytes` of the chunk
  /// (`chunk_was_allocated` says whether the chunk already exists on disk,
  /// which decides if a partial miss needs a pre-read).
  CacheOutcome touch_write(const ChunkKey& key, Bytes covered_bytes,
                           bool chunk_was_allocated);

  /// Touches `key` for a read.
  CacheOutcome touch_read(const ChunkKey& key);

  /// Removes and returns all dirty chunks (flush at dataset close).
  std::vector<ChunkKey> flush_dirty();

  bool resident(const ChunkKey& key) const;
  std::size_t resident_chunks() const { return nodes_.size(); }
  Bytes capacity() const { return props_.rdcc_nbytes; }
  Bytes chunk_bytes() const { return chunk_bytes_; }
  const ChunkCacheStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNil = UINT32_MAX;

  /// One resident chunk; `prev`/`next` link the LRU list by node index.
  struct Node {
    ChunkKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    bool dirty = false;
  };

  /// Node index holding `key`, or kNil.
  std::uint32_t find(const ChunkKey& key) const;
  /// Index slot where a probe for `key` starts.
  std::size_t home_slot(const ChunkKey& key) const;
  /// Records node `id` (holding a key not yet indexed) in the index.
  void index_insert(std::uint32_t id);
  /// Removes `key` from the index (backward-shift delete).
  void index_erase(const ChunkKey& key);
  /// Doubles the index and re-inserts every node.
  void grow_index();

  void unlink(std::uint32_t id);
  void push_front(std::uint32_t id);
  void move_to_front(std::uint32_t id);

  /// Makes `key` resident and most recent, evicting the LRU victim into
  /// `outcome` when the cache is full.
  void insert(const ChunkKey& key, bool dirty, CacheOutcome& outcome);

  ChunkCacheProps props_;
  Bytes chunk_bytes_;
  std::size_t max_resident_;  ///< min(nbytes/chunk, nslots)
  std::vector<Node> nodes_;   ///< resident chunks, size <= max_resident_
  std::uint32_t head_ = kNil; ///< most recent
  std::uint32_t tail_ = kNil; ///< least recent
  /// Open-addressing index: node index per slot, kNil = empty. Its size
  /// is a power of two kept at least twice the resident count.
  std::vector<std::uint32_t> slots_;
  unsigned slot_shift_ = 64;  ///< 64 - log2(slots_.size())
  ChunkCacheStats stats_;
};

}  // namespace tunio::h5
