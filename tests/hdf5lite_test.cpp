// Tests for the HDF5-like library: chunk cache, metadata manager,
// dataset layouts, sieve buffering, property effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hdf5lite/chunk_cache.hpp"
#include "hdf5lite/file.hpp"
#include "hdf5lite/metadata.hpp"

namespace tunio::h5 {
namespace {

// --- ChunkCache ----------------------------------------------------------

TEST(ChunkCache, HitsAndMisses) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 4 * MiB;
  ChunkCache cache(props, 1 * MiB);
  auto first = cache.touch_write({0, 0}, 1 * MiB, false);
  EXPECT_FALSE(first.hit);
  auto second = cache.touch_write({0, 0}, 1 * MiB, true);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ChunkCache, LruEvictionOrder) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 2 * MiB;  // two 1 MiB chunks fit
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  // Touch chunk 0 again so chunk 1 is LRU.
  cache.touch_write({0, 0}, 1 * MiB, true);
  auto outcome = cache.touch_write({0, 2}, 1 * MiB, false);
  ASSERT_TRUE(outcome.evicted_dirty.has_value());
  EXPECT_EQ(outcome.evicted_dirty->chunk, 1u);  // LRU victim
  EXPECT_TRUE(cache.resident({0, 0}));
  EXPECT_FALSE(cache.resident({0, 1}));
}

TEST(ChunkCache, BypassWhenChunkLargerThanCache) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 512 * KiB;
  ChunkCache cache(props, 1 * MiB);  // chunk can't fit
  auto outcome = cache.touch_write({0, 0}, 256 * KiB, true);
  EXPECT_TRUE(outcome.bypass);
  EXPECT_TRUE(outcome.needs_preread);  // partial write of an existing chunk
  auto full = cache.touch_write({0, 1}, 1 * MiB, true);
  EXPECT_TRUE(full.bypass);
  EXPECT_FALSE(full.needs_preread);  // full overwrite: no pre-read
  EXPECT_EQ(cache.stats().bypasses, 2u);
}

TEST(ChunkCache, PartialMissOfExistingChunkNeedsPreread) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  auto fresh = cache.touch_write({0, 0}, 4 * KiB, /*allocated=*/false);
  EXPECT_FALSE(fresh.needs_preread);  // chunk doesn't exist on disk yet
  auto existing = cache.touch_write({1, 1}, 4 * KiB, /*allocated=*/true);
  EXPECT_TRUE(existing.needs_preread);
}

TEST(ChunkCache, NslotsLimitsResidency) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 100 * MiB;
  props.rdcc_nslots = 2;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  cache.touch_write({0, 2}, 1 * MiB, false);
  EXPECT_EQ(cache.resident_chunks(), 2u);
}

TEST(ChunkCache, FlushDirtyReturnsAllDirtyOnce) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 0}, 1 * MiB, false);
  cache.touch_write({0, 1}, 1 * MiB, false);
  cache.touch_read({0, 2});
  auto dirty = cache.flush_dirty();
  EXPECT_EQ(dirty.size(), 2u);  // the read-only chunk is clean
  EXPECT_TRUE(cache.flush_dirty().empty());  // idempotent
}

TEST(ChunkCache, PerRankKeysAreDistinct) {
  ChunkCacheProps props;
  props.rdcc_nbytes = 8 * MiB;
  ChunkCache cache(props, 1 * MiB);
  cache.touch_write({0, 7}, 1 * MiB, false);
  auto other_rank = cache.touch_write({1, 7}, 1 * MiB, false);
  EXPECT_FALSE(other_rank.hit);  // same chunk index, different rank
}

/// The std::list + std::unordered_map LRU that ChunkCache replaced, kept
/// as the differential oracle for the flat implementation.
class ReferenceChunkCache {
 public:
  struct Outcome {
    bool hit = false;
    bool bypass = false;
    bool needs_preread = false;
    std::vector<ChunkKey> evicted_dirty;
  };

  ReferenceChunkCache(ChunkCacheProps props, Bytes chunk_bytes)
      : chunk_bytes_(chunk_bytes),
        max_resident_(std::min<std::size_t>(
            static_cast<std::size_t>(props.rdcc_nbytes / chunk_bytes),
            props.rdcc_nslots)) {}

  Outcome touch_write(const ChunkKey& key, Bytes covered, bool allocated) {
    Outcome outcome;
    if (max_resident_ == 0) {
      ++stats_.bypasses;
      outcome.bypass = true;
      outcome.needs_preread = allocated && covered < chunk_bytes_;
      return outcome;
    }
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      outcome.hit = true;
      it->second.dirty = true;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(key);
      it->second.lru_pos = lru_.begin();
      return outcome;
    }
    ++stats_.misses;
    outcome.needs_preread = allocated && covered < chunk_bytes_;
    insert(key, true, outcome);
    return outcome;
  }

  Outcome touch_read(const ChunkKey& key) {
    Outcome outcome;
    if (max_resident_ == 0) {
      ++stats_.bypasses;
      outcome.bypass = true;
      return outcome;
    }
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      outcome.hit = true;
      lru_.erase(it->second.lru_pos);
      lru_.push_front(key);
      it->second.lru_pos = lru_.begin();
      return outcome;
    }
    ++stats_.misses;
    insert(key, false, outcome);
    return outcome;
  }

  std::vector<ChunkKey> flush_dirty() {
    std::vector<ChunkKey> dirty;
    for (auto& [key, entry] : entries_) {
      if (entry.dirty) {
        dirty.push_back(key);
        entry.dirty = false;
      }
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const ChunkKey& a, const ChunkKey& b) {
                return a.rank != b.rank ? a.rank < b.rank : a.chunk < b.chunk;
              });
    return dirty;
  }

  bool resident(const ChunkKey& key) const { return entries_.count(key) > 0; }
  std::size_t resident_chunks() const { return entries_.size(); }
  const ChunkCacheStats& stats() const { return stats_; }

 private:
  struct KeyHash {
    std::size_t operator()(const ChunkKey& k) const {
      return std::hash<std::uint64_t>()(
          (static_cast<std::uint64_t>(k.rank) << 40) ^ k.chunk);
    }
  };
  struct Entry {
    std::list<ChunkKey>::iterator lru_pos;
    bool dirty = false;
  };

  void insert(const ChunkKey& key, bool dirty, Outcome& outcome) {
    while (entries_.size() >= max_resident_ && !entries_.empty()) {
      const ChunkKey victim = lru_.back();
      lru_.pop_back();
      auto it = entries_.find(victim);
      ++stats_.evictions;
      if (it->second.dirty) {
        ++stats_.dirty_evictions;
        outcome.evicted_dirty.push_back(victim);
      }
      entries_.erase(it);
    }
    lru_.push_front(key);
    entries_[key] = Entry{lru_.begin(), dirty};
  }

  Bytes chunk_bytes_;
  std::size_t max_resident_;
  std::list<ChunkKey> lru_;
  std::unordered_map<ChunkKey, Entry, KeyHash> entries_;
  ChunkCacheStats stats_;
};

void expect_same_stats(const ChunkCacheStats& a, const ChunkCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.bypasses, b.bypasses);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.dirty_evictions, b.dirty_evictions);
}

TEST(ChunkCache, MatchesListAndHashMapReference) {
  struct Shape {
    Bytes nbytes;
    unsigned nslots;
    unsigned ranks;       ///< keys collide across ranks on equal chunks
    std::uint64_t chunks; ///< chunk indices drawn from [0, chunks)
  };
  const Shape shapes[] = {
      {0, 521, 4, 8},          // capacity 0: every touch bypasses
      {1 * MiB, 521, 4, 8},    // capacity 1
      {2 * MiB, 521, 3, 6},    // capacity 2
      {7 * MiB, 521, 4, 16},   // capacity 7
      {7 * MiB, 521, 64, 2},   // capacity 7, mostly cross-rank keys
      {1 * GiB, 5, 4, 16},     // nslots caps residency at 5
      {1 * GiB, 521, 8, 256},  // default nslots cap: index growth
  };
  Rng rng(0xCAC4E);
  for (const Shape& shape : shapes) {
    ChunkCacheProps props;
    props.rdcc_nbytes = shape.nbytes;
    props.rdcc_nslots = shape.nslots;
    ChunkCache cache(props, 1 * MiB);
    ReferenceChunkCache reference(props, 1 * MiB);
    for (int step = 0; step < 20000; ++step) {
      const ChunkKey key{static_cast<unsigned>(rng.index(shape.ranks)),
                         rng.index(shape.chunks)};
      const double action = rng.uniform();
      if (action < 0.01) {
        ASSERT_EQ(cache.flush_dirty(), reference.flush_dirty());
        continue;
      }
      CacheOutcome got;
      ReferenceChunkCache::Outcome want;
      if (action < 0.6) {
        const Bytes covered =
            rng.chance(0.5) ? 1 * MiB : static_cast<Bytes>(rng.index(MiB));
        const bool allocated = rng.chance(0.5);
        got = cache.touch_write(key, covered, allocated);
        want = reference.touch_write(key, covered, allocated);
      } else {
        got = cache.touch_read(key);
        want = reference.touch_read(key);
      }
      ASSERT_EQ(got.hit, want.hit);
      ASSERT_EQ(got.bypass, want.bypass);
      ASSERT_EQ(got.needs_preread, want.needs_preread);
      ASSERT_LE(want.evicted_dirty.size(), 1u);
      ASSERT_EQ(got.evicted_dirty.has_value(), !want.evicted_dirty.empty());
      if (got.evicted_dirty) {
        ASSERT_EQ(*got.evicted_dirty, want.evicted_dirty.front());
      }
      ASSERT_EQ(cache.resident_chunks(), reference.resident_chunks());
    }
    for (unsigned rank = 0; rank < shape.ranks; ++rank) {
      for (std::uint64_t chunk = 0; chunk < shape.chunks; ++chunk) {
        EXPECT_EQ(cache.resident({rank, chunk}),
                  reference.resident({rank, chunk}));
      }
    }
    expect_same_stats(cache.stats(), reference.stats());
    EXPECT_EQ(cache.flush_dirty(), reference.flush_dirty());
  }
}

// --- MetadataManager ------------------------------------------------------

TEST(MetadataManager, RawAllocationHonorsAlignment) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create("/f", 0.0);
  FileAccessProps fapl;
  fapl.alignment = 1 * MiB;
  fapl.alignment_threshold = 64 * KiB;
  MetadataManager meta(mpi, fs, "/f", fapl);
  const Bytes tiny = meta.alloc_raw(1 * KiB);  // below threshold: packed
  EXPECT_NE(tiny % (1 * MiB), 0u);             // sits right after the sb
  const Bytes big = meta.alloc_raw(2 * MiB);   // above threshold: aligned
  EXPECT_EQ(big % (1 * MiB), 0u);
  const Bytes next = meta.alloc_raw(1 * MiB);  // still aligned (eoa moved)
  EXPECT_EQ(next % (1 * MiB), 0u);
}

TEST(MetadataManager, MetaBlockAggregationReducesBlocks) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create("/f", 0.0);
  FileAccessProps small;
  small.meta_block_size = 2 * KiB;
  FileAccessProps large;
  large.meta_block_size = 64 * KiB;
  MetadataManager meta_small(mpi, fs, "/f", small);
  MetadataManager meta_large(mpi, fs, "/f", large);
  for (int i = 0; i < 64; ++i) {
    meta_small.alloc_meta(1 * KiB);
    meta_large.alloc_meta(1 * KiB);
  }
  EXPECT_GT(meta_small.stats().meta_blocks, meta_large.stats().meta_blocks);
}

TEST(MetadataManager, EagerVsCollectiveMetadataWrites) {
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create("/f", 0.0);
  FileAccessProps eager;  // coll_metadata_write = false
  MetadataManager meta_eager(mpi, fs, "/f", eager);
  for (int i = 0; i < 10; ++i) meta_eager.meta_update(256);
  EXPECT_EQ(meta_eager.stats().meta_writes, 10u);  // one write per update

  FileAccessProps coll;
  coll.coll_metadata_write = true;
  MetadataManager meta_coll(mpi, fs, "/f", coll);
  for (int i = 0; i < 10; ++i) meta_coll.meta_update(256);
  EXPECT_EQ(meta_coll.stats().meta_writes, 0u);  // staged
  meta_coll.flush();
  EXPECT_EQ(meta_coll.stats().meta_writes, 1u);  // one aggregated write
  EXPECT_EQ(meta_coll.stats().meta_bytes_written, 2560u);
}

TEST(MetadataManager, CollectiveLookupAvoidsMdsStorm) {
  FileAccessProps storm;  // coll_metadata_ops = false
  FileAccessProps coll;
  coll.coll_metadata_ops = true;

  auto misses_mds_ops = [](const FileAccessProps& fapl) {
    mpisim::MpiSim mpi(32);
    pfs::PfsSimulator fs;
    fs.create("/f", 0.0);
    FileAccessProps tiny_cache = fapl;
    tiny_cache.mdc_nbytes = 0;  // force misses
    MetadataManager meta(mpi, fs, "/f", tiny_cache);
    meta.meta_update(64 * KiB);  // build a working set
    const auto before = fs.counters().metadata_ops;
    for (int i = 0; i < 8; ++i) meta.meta_lookup(512);
    return fs.counters().metadata_ops - before;
  };
  EXPECT_GT(misses_mds_ops(storm), misses_mds_ops(coll));
}

TEST(MetadataManager, MdcCacheAbsorbsLookups) {
  mpisim::MpiSim mpi(8);
  pfs::PfsSimulator fs;
  fs.create("/f", 0.0);
  FileAccessProps big_cache;
  big_cache.mdc_nbytes = 64 * MiB;
  MetadataManager meta(mpi, fs, "/f", big_cache);
  meta.meta_update(1 * KiB);
  for (int i = 0; i < 100; ++i) meta.meta_lookup(512);
  // Working set fits: nearly all lookups hit.
  EXPECT_GT(meta.stats().mdc_hits, 90u);
}

TEST(MetadataManager, MissSpreadingMatchesModuloReference) {
  // Every k-th lookup misses, k ~ 1/p(working set). The manager keeps the
  // phase incrementally; this replays the direct modulo over a working set
  // that grows from empty through the cache size, so k runs from "never"
  // through 50 down to 1.
  mpisim::MpiSim mpi(4);
  pfs::PfsSimulator fs;
  fs.create("/f", 0.0);
  FileAccessProps fapl;
  fapl.mdc_nbytes = 16 * KiB;
  fapl.coll_metadata_ops = true;
  fapl.coll_metadata_write = true;
  MetadataManager meta(mpi, fs, "/f", fapl);

  Bytes working_set = 0;
  std::uint64_t lookups = 0;
  std::uint64_t expected_misses = 0;
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (int step = 0; step < 5000; ++step) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((state >> 60) == 0) {
      const Bytes bytes = (state >> 20) % 4096;
      meta.meta_update(bytes);
      working_set += bytes;
      continue;
    }
    meta.meta_lookup(512);
    ++lookups;
    if (working_set > 0) {
      const double p_miss =
          fapl.mdc_nbytes >= working_set
              ? 0.02
              : std::clamp(1.0 - static_cast<double>(fapl.mdc_nbytes) /
                                     static_cast<double>(working_set),
                           0.02, 1.0);
      const std::uint64_t period = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(1.0 / std::max(p_miss, 1e-9)));
      expected_misses += lookups % period == 0;
    }
    ASSERT_EQ(meta.stats().mdc_misses, expected_misses) << "lookup " << lookups;
  }
  EXPECT_EQ(meta.stats().mdc_hits + meta.stats().mdc_misses, lookups);
  EXPECT_GT(working_set, 32 * fapl.mdc_nbytes);
}

// --- Dataset / File -------------------------------------------------------

struct Stack {
  mpisim::MpiSim mpi{8};
  pfs::PfsSimulator fs;
};

std::vector<Selection> slabs(unsigned ranks, std::uint64_t per_rank,
                             std::uint64_t base = 0) {
  std::vector<Selection> sels;
  for (unsigned r = 0; r < ranks; ++r) {
    sels.push_back({r, base + r * per_rank, per_rank});
  }
  return sels;
}

TEST(H5File, CreateDatasetAndWrite) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 1 << 20);
  EXPECT_FALSE(ds.chunked());
  ds.write(slabs(8, 1 << 17), TransferProps{true});
  EXPECT_EQ(ds.stats().h5_writes, 8u);
  EXPECT_EQ(ds.stats().bytes_written, (1u << 20) * 4u);
  file.close();
  EXPECT_GT(s.fs.counters().bytes_written, (1u << 20) * 4u - 1);
}

TEST(H5File, DuplicateDatasetRejected) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  file.create_dataset("x", 4, 100);
  EXPECT_THROW(file.create_dataset("x", 4, 100), Error);
  EXPECT_TRUE(file.has_dataset("x"));
  EXPECT_FALSE(file.has_dataset("y"));
  EXPECT_THROW(file.dataset("y"), Error);
}

TEST(H5File, OutOfBoundsSelectionRejected) {
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 100);
  std::vector<Selection> bad{{0, 90, 20}};
  EXPECT_THROW(ds.write(bad, TransferProps{}), Error);
  EXPECT_THROW(ds.read(bad, TransferProps{}), Error);
}

TEST(H5Dataset, ChunkedWritesThroughCache) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 64 * MiB;  // everything stays cached
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1 << 15;  // 128 KiB chunks of 4-byte elems
  Dataset& ds = file.create_dataset("c", 4, 1 << 20, dcpl, cache);
  EXPECT_TRUE(ds.chunked());
  const Bytes raw_before = s.fs.counters().bytes_written;
  ds.write(slabs(8, 1 << 17), TransferProps{true});
  // Raw data sits in the cache until flush; only metadata has hit disk.
  const Bytes mid = s.fs.counters().bytes_written - raw_before;
  EXPECT_LT(mid, 1 * MiB);
  ds.flush();
  const Bytes after = s.fs.counters().bytes_written - raw_before;
  EXPECT_GE(after, (1u << 20) * 4u);
}

TEST(H5Dataset, ChunkIndexGrowsWithAllocatedChunksNotExtent) {
  // 2^40 one-element chunks: an index sized by the declared extent would
  // need terabytes; only the touched chunk may cost memory.
  Stack s;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1;
  const std::uint64_t elements = std::uint64_t{1} << 40;
  Dataset& ds = file.create_dataset("huge", 8, elements, dcpl, ChunkCacheProps{});
  const Bytes raw_before = s.fs.counters().bytes_written;
  std::vector<Selection> last{{0, elements - 1, 1}};
  ds.write(last, TransferProps{});
  ds.flush();
  EXPECT_EQ(ds.stats().bytes_written, 8u);
  EXPECT_EQ(ds.cache_stats()->misses, 1u);
  EXPECT_GE(s.fs.counters().bytes_written - raw_before, 8u);
}

TEST(H5Dataset, TinyCacheCausesEvictionTraffic) {
  auto dirty_evictions = [](Bytes cache_bytes) {
    Stack s;
    ChunkCacheProps cache;
    cache.rdcc_nbytes = cache_bytes;
    File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
    DatasetCreateProps dcpl;
    dcpl.chunk_elements = 1 << 18;  // 1 MiB chunks
    Dataset& ds = file.create_dataset("c", 4, 1 << 23, dcpl, cache);
    ds.write(slabs(8, 1 << 20), TransferProps{true});
    return ds.cache_stats()->dirty_evictions;
  };
  EXPECT_GT(dirty_evictions(1 * MiB), dirty_evictions(64 * MiB));
}

TEST(H5Dataset, ContiguousSieveCoalescesSmallWrites) {
  auto sieve_flushes = [](Bytes sieve) {
    Stack s;
    FileAccessProps fapl;
    fapl.sieve_buf_size = sieve;
    File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
    Dataset& ds = file.create_dataset("x", 4, 1 << 20);
    // Rank 0 writes 64 sequential 1 KiB pieces (256 elements each).
    for (std::uint64_t i = 0; i < 64; ++i) {
      std::vector<Selection> one{{0, i * 256, 256}};
      ds.write(one, TransferProps{false});
    }
    ds.flush();
    return ds.stats().sieve_flushes;
  };
  // A big sieve buffer absorbs everything into few flushes.
  EXPECT_LT(sieve_flushes(1 * MiB), sieve_flushes(4 * KiB));
}

TEST(H5Dataset, SieveReadAheadServesSequentialReads) {
  Stack s;
  FileAccessProps fapl;
  fapl.sieve_buf_size = 256 * KiB;
  File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
  Dataset& ds = file.create_dataset("x", 4, 1 << 20);
  ds.write(slabs(1, 1 << 20), TransferProps{false});
  ds.flush();
  const auto reads_before = s.fs.counters().reads;
  // 16 small sequential reads within one sieve window.
  for (std::uint64_t i = 0; i < 16; ++i) {
    std::vector<Selection> one{{0, i * 256, 256}};
    ds.read(one, TransferProps{false});
  }
  // Far fewer PFS reads than application reads.
  EXPECT_LT(s.fs.counters().reads - reads_before, 16u);
}

TEST(H5Dataset, ChunkReadMissFetchesWholeChunk) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 16 * MiB;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = 1 << 18;
  Dataset& ds = file.create_dataset("c", 4, 1 << 21, dcpl, cache);
  ds.write(slabs(2, 1 << 20), TransferProps{true});
  ds.flush();
  const Bytes read_before = s.fs.counters().bytes_read;
  // Rank 1 reads a chunk it never wrote: its cache misses and the whole
  // chunk is fetched for a 64-byte read. (Rank 0 would hit its cache.)
  std::vector<Selection> small{{1, 0, 16}};
  ds.read(small, TransferProps{false});
  EXPECT_GE(s.fs.counters().bytes_read - read_before, 1 * MiB);
  // A second small read of the same chunk hits the cache: no more I/O.
  const Bytes read_mid = s.fs.counters().bytes_read;
  std::vector<Selection> small2{{1, 32, 16}};
  ds.read(small2, TransferProps{false});
  EXPECT_EQ(s.fs.counters().bytes_read, read_mid);
}

TEST(H5File, CloseFlushesEverythingAndIsIdempotent) {
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = 64 * MiB;
  {
    File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
    DatasetCreateProps dcpl;
    dcpl.chunk_elements = 1 << 16;
    Dataset& ds = file.create_dataset("c", 4, 1 << 19, dcpl, cache);
    ds.write(slabs(4, 1 << 17), TransferProps{true});
    file.close();
    file.close();  // no-op
    EXPECT_THROW(file.create_dataset("late", 4, 10), Error);
  }
  // All raw bytes on disk after close (destructor also safe).
  EXPECT_GE(s.fs.counters().bytes_written, (1u << 19) * 4u);
}

TEST(H5File, CollectiveMetadataWriteReducesMetaWriteOps) {
  auto meta_writes = [](bool coll) {
    Stack s;
    FileAccessProps fapl;
    fapl.coll_metadata_write = coll;
    File file(s.mpi, s.fs, "/f.h5", fapl, mpiio::Hints{});
    for (int d = 0; d < 12; ++d) {
      std::string name = "d";
      name += std::to_string(d);
      file.create_dataset(name, 8, 4096);
    }
    file.close();
    return file.meta().stats().meta_writes;
  };
  EXPECT_LT(meta_writes(true), meta_writes(false));
}

/// Property: whatever the chunk/cache geometry, closing the file lands at
/// least the full payload on the PFS (no lost raw data).
class ChunkGeometryProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Bytes>> {};

TEST_P(ChunkGeometryProperty, PayloadConservedThroughCache) {
  const auto [chunk_elems, cache_bytes] = GetParam();
  Stack s;
  ChunkCacheProps cache;
  cache.rdcc_nbytes = cache_bytes;
  File file(s.mpi, s.fs, "/f.h5", FileAccessProps{}, mpiio::Hints{});
  DatasetCreateProps dcpl;
  dcpl.chunk_elements = chunk_elems;
  const std::uint64_t per_rank = 1 << 17;
  Dataset& ds =
      file.create_dataset("c", 4, per_rank * s.mpi.size(), dcpl, cache);
  ds.write(slabs(s.mpi.size(), per_rank), TransferProps{true});
  file.close();
  EXPECT_GE(s.fs.counters().bytes_written,
            per_rank * s.mpi.size() * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ChunkGeometryProperty,
    ::testing::Combine(::testing::Values(std::uint64_t{1} << 12,
                                         std::uint64_t{1} << 15,
                                         std::uint64_t{1} << 18),
                       ::testing::Values(Bytes{1 * MiB}, Bytes{16 * MiB},
                                         Bytes{256 * MiB})));

}  // namespace
}  // namespace tunio::h5
