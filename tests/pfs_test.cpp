// Tests for the Lustre-like PFS simulator: stripe layout math, cost-model
// behaviour, contention, tiers, and counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "pfs/layout.hpp"
#include "pfs/pfs.hpp"

namespace tunio::pfs {
namespace {

TEST(StripeLayout, SingleStripeIsIdentity) {
  StripeLayout layout(1 * MiB, 1, 0, 8);
  const auto pieces = layout.split(0, 10 * MiB);
  ASSERT_EQ(pieces.size(), 1u);  // coalesced: all on the same OST
  EXPECT_EQ(pieces[0].ost, 0u);
  EXPECT_EQ(pieces[0].object_offset, 0u);
  EXPECT_EQ(pieces[0].length, 10 * MiB);
}

TEST(StripeLayout, RoundRobinAcrossOsts) {
  StripeLayout layout(1 * MiB, 4, 0, 8);
  EXPECT_EQ(layout.ost_for(0), 0u);
  EXPECT_EQ(layout.ost_for(1 * MiB), 1u);
  EXPECT_EQ(layout.ost_for(3 * MiB), 3u);
  EXPECT_EQ(layout.ost_for(4 * MiB), 0u);  // wraps
}

TEST(StripeLayout, OstOffsetShiftsPlacement) {
  StripeLayout layout(1 * MiB, 4, 6, 8);
  EXPECT_EQ(layout.ost_for(0), 6u);
  EXPECT_EQ(layout.ost_for(1 * MiB), 7u);
  EXPECT_EQ(layout.ost_for(2 * MiB), 0u);  // wraps the pool
}

TEST(StripeLayout, ObjectOffsets) {
  StripeLayout layout(1 * MiB, 2, 0, 8);
  // File offset 2 MiB = second stripe round on OST 0 -> object offset 1MiB.
  EXPECT_EQ(layout.object_offset_for(2 * MiB), 1 * MiB);
  EXPECT_EQ(layout.object_offset_for(2 * MiB + 123), 1 * MiB + 123);
}

TEST(StripeLayout, StripeCountClampedToPool) {
  StripeLayout layout(1 * MiB, 64, 0, 4);
  EXPECT_EQ(layout.stripe_count(), 4u);
}

TEST(StripeLayout, RejectsBadArgs) {
  EXPECT_THROW(StripeLayout(0, 1, 0, 4), Error);
  EXPECT_THROW(StripeLayout(1 * MiB, 0, 0, 4), Error);
  EXPECT_THROW(StripeLayout(1 * MiB, 1, 0, 0), Error);
}

/// Property: splitting any extent yields pieces that exactly tile it.
class SplitProperty
    : public ::testing::TestWithParam<std::tuple<Bytes, unsigned>> {};

TEST_P(SplitProperty, PiecesTileTheExtent) {
  const auto [stripe_size, stripe_count] = GetParam();
  StripeLayout layout(stripe_size, stripe_count, 1, 16);
  Rng rng(99);
  for (int i = 0; i < 100; ++i) {
    const Bytes offset = static_cast<Bytes>(rng.uniform_int(0, 64 * MiB));
    const Bytes length = static_cast<Bytes>(rng.uniform_int(1, 16 * MiB));
    const auto pieces = layout.split(offset, length);
    ASSERT_FALSE(pieces.empty());
    Bytes covered = 0;
    Bytes cursor = offset;
    for (const auto& piece : pieces) {
      EXPECT_EQ(piece.file_offset, cursor);
      EXPECT_EQ(piece.ost, layout.ost_for(piece.file_offset));
      EXPECT_EQ(piece.object_offset,
                layout.object_offset_for(piece.file_offset));
      covered += piece.length;
      cursor += piece.length;
    }
    EXPECT_EQ(covered, length);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, SplitProperty,
    ::testing::Values(std::make_tuple(Bytes{64 * KiB}, 1u),
                      std::make_tuple(Bytes{1 * MiB}, 2u),
                      std::make_tuple(Bytes{1 * MiB}, 8u),
                      std::make_tuple(Bytes{4 * MiB}, 16u),
                      std::make_tuple(Bytes{16 * MiB}, 3u)));

TEST(PfsSimulator, CreateOpenRemove) {
  PfsSimulator fs;
  EXPECT_FALSE(fs.exists("/a"));
  fs.create("/a", 0.0);
  EXPECT_TRUE(fs.exists("/a"));
  EXPECT_NO_THROW(fs.open("/a", 0.0));
  fs.remove("/a", 0.0);
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_THROW(fs.open("/a", 0.0), Error);
}

TEST(PfsSimulator, PublishedSizeHistogramsCarryTheLargestAccess) {
  {
    PfsSimulator fs;
    fs.create("/sizes", 0.0);
    fs.write("/sizes", 0.0, 0, 3 * MiB + 17);
    fs.write("/sizes", 0.0, 0, 100 * KiB);
    fs.read("/sizes", 0.0, 0, 70 * KiB);
    EXPECT_EQ(fs.counters().write_sizes.max, 3 * MiB + 17);
    EXPECT_EQ(fs.counters().read_sizes.max, 70 * KiB);
  }  // teardown publishes to the registry
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const char* name : {"pfs.write_size_bytes", "pfs.read_size_bytes"}) {
    const obs::MetricsSnapshot::HistogramValue* h = snap.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    std::size_t top = h->counts.size();
    while (top > 0 && h->counts[top - 1] == 0) --top;
    ASSERT_GT(top, 0u) << name;
    // Bucket k holds samples above bounds[k-1]: the max must reach it.
    const double lower = top == 1 ? 0.0 : h->bounds[top - 2];
    EXPECT_GT(h->max, lower) << name;
  }
  EXPECT_GE(snap.histogram("pfs.write_size_bytes")->max, 3.0 * MiB + 17);
  EXPECT_GE(snap.histogram("pfs.read_size_bytes")->max, 70.0 * KiB);
}

TEST(PfsSimulator, WriteAdvancesTimeAndSize) {
  PfsSimulator fs;
  fs.create("/f", 0.0);
  const SimSeconds done = fs.write("/f", 1.0, 0, 8 * MiB);
  EXPECT_GT(done, 1.0);
  EXPECT_EQ(fs.file_size("/f"), 8 * MiB);
  EXPECT_EQ(fs.counters().writes, 1u);
  EXPECT_EQ(fs.counters().bytes_written, 8 * MiB);
}

TEST(PfsSimulator, WiderStripingIsFasterForLargeWrites) {
  PfsProfile profile;
  PfsSimulator fs(profile);
  CreateOptions narrow;
  narrow.stripe_count = 1;
  CreateOptions wide;
  wide.stripe_count = 16;
  fs.create("/narrow", 0.0, narrow);
  const SimSeconds narrow_done = fs.write("/narrow", 0.0, 0, 256 * MiB);
  fs.quiesce();
  fs.create("/wide", 0.0, wide);
  const SimSeconds wide_done = fs.write("/wide", 0.0, 0, 256 * MiB);
  EXPECT_LT(wide_done, narrow_done);
}

TEST(PfsSimulator, UnalignedWritePaysRmw) {
  PfsSimulator fs;
  fs.create("/aligned", 0.0);
  fs.create("/unaligned", 0.0);
  // Aligned full-block write: no RMW bytes.
  fs.write("/aligned", 0.0, 0, 1 * MiB);
  EXPECT_EQ(fs.counters().rmw_bytes, 0u);
  // A non-sequential partial-block write must pre-read.
  fs.write("/unaligned", 0.0, 512 * KiB, 4 * KiB);
  EXPECT_GT(fs.counters().rmw_bytes, 0u);
}

TEST(PfsSimulator, RmwPaddingForPowerOfTwoAndOtherBlocks) {
  // A first write of [100 KiB, 1636 KiB) in one stripe pre-reads the
  // head of its first block and the tail of its last one.
  const struct {
    Bytes block;
    Bytes pre_read;
  } cases[] = {{1 * MiB, 100 * KiB + 412 * KiB},
               {768 * KiB, 100 * KiB + 668 * KiB}};
  for (const auto& c : cases) {
    PfsProfile profile;
    profile.ost.rmw_block = c.block;
    PfsSimulator fs(profile);
    CreateOptions one_stripe;
    one_stripe.stripe_size = 64 * MiB;
    fs.create("/f", 0.0, one_stripe);
    fs.write("/f", 0.0, 100 * KiB, 1536 * KiB);
    EXPECT_EQ(fs.counters().rmw_bytes, c.pre_read) << "block " << c.block;
  }
}

TEST(PfsSimulator, SequentialAppendsSkipRmw) {
  PfsSimulator fs;
  fs.create("/log", 0.0);
  SimSeconds t = fs.write("/log", 0.0, 0, 512);
  const Bytes before = fs.counters().rmw_bytes;
  for (int i = 1; i < 50; ++i) {
    t = fs.write("/log", t, i * 512ull, 512);
  }
  // Streaming appends are absorbed by the page-cache model: no pre-reads.
  EXPECT_EQ(fs.counters().rmw_bytes, before);
}

TEST(PfsSimulator, ContentionSerializesOnOneOst) {
  PfsProfile profile;
  PfsSimulator fs(profile);
  CreateOptions one;
  one.stripe_count = 1;
  fs.create("/hot", 0.0, one);
  // Two writes "issued at the same time" to the same OST must serialize.
  const SimSeconds first = fs.write("/hot", 0.0, 0, 64 * MiB);
  const SimSeconds second = fs.write("/hot", 0.0, 64 * MiB, 64 * MiB);
  EXPECT_GT(second, first);
}

TEST(PfsSimulator, MemoryTierBypassesOsts) {
  PfsSimulator fs;
  CreateOptions mem;
  mem.tier = Tier::kMemory;
  fs.create("/shm/f", 0.0, mem);
  EXPECT_EQ(fs.file_tier("/shm/f"), Tier::kMemory);
  const SimSeconds done = fs.write("/shm/f", 0.0, 0, 64 * MiB);
  // Memory tier leaves OST timelines untouched.
  for (const SimSeconds busy : fs.ost_busy_times()) {
    EXPECT_DOUBLE_EQ(busy, 0.0);
  }
  // And it is much faster than a single-stripe disk write of this size.
  CreateOptions one_stripe;
  one_stripe.stripe_count = 1;
  fs.create("/disk/f", 0.0, one_stripe);
  const SimSeconds disk_done = fs.write("/disk/f", 0.0, 0, 64 * MiB);
  EXPECT_LT(done, disk_done);
}

TEST(PfsSimulator, ReadCountersAndMissingFile) {
  PfsSimulator fs;
  fs.create("/r", 0.0);
  fs.write("/r", 0.0, 0, 1 * MiB);
  fs.read("/r", 10.0, 0, 1 * MiB);
  EXPECT_EQ(fs.counters().reads, 1u);
  EXPECT_EQ(fs.counters().bytes_read, 1 * MiB);
  EXPECT_THROW(fs.read("/missing", 0.0, 0, 1), Error);
}

TEST(PfsSimulator, MetadataOpsContend) {
  PfsSimulator fs;
  const SimSeconds first = fs.metadata_op(0.0);
  const SimSeconds second = fs.metadata_op(0.0);
  EXPECT_GT(second, first);  // serialized on the MDS
  EXPECT_EQ(fs.counters().metadata_ops, 2u);
}

TEST(PfsSimulator, ResetClearsEverything) {
  PfsSimulator fs;
  fs.create("/x", 0.0);
  fs.write("/x", 0.0, 0, 1 * MiB);
  fs.reset();
  EXPECT_FALSE(fs.exists("/x"));
  EXPECT_EQ(fs.counters().writes, 0u);
  EXPECT_EQ(fs.counters().metadata_ops, 0u);
}

TEST(PfsSimulator, QuiesceKeepsFilesAndCounters) {
  PfsSimulator fs;
  fs.create("/x", 0.0);
  fs.write("/x", 0.0, 0, 1 * MiB);
  const auto writes_before = fs.counters().writes;
  fs.quiesce();
  EXPECT_TRUE(fs.exists("/x"));
  EXPECT_EQ(fs.counters().writes, writes_before);
  // Timelines rewound: a new op starts from t=0 contention-free.
  const SimSeconds done = fs.metadata_op(0.0);
  EXPECT_NEAR(done, fs.profile().mds.op_latency, 1e-12);
}

TEST(SizeHistogram, BucketsAndLabels) {
  SizeHistogram h;
  h.record(100);            // <4K
  h.record(8 * KiB);        // 4K-64K
  h.record(100 * KiB);      // 64K-1M
  h.record(2 * MiB);        // 1M-16M
  h.record(64 * MiB);       // >=16M
  h.record(64 * MiB);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.counts[4], 2u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_STREQ(SizeHistogram::label(0), "<4K");
  EXPECT_STREQ(SizeHistogram::label(4), ">=16M");
  SizeHistogram other = h;
  h -= other;
  EXPECT_EQ(h.total(), 0u);
}

TEST(SizeHistogram, BucketsLikeTheRegistryAtEveryLimit) {
  // The PFS bucketing and the registry histograms it publishes into read
  // the same Darshan limits, so both split each limit the same way.
  for (std::size_t i = 0; i < obs::kDarshanSizeLimits.size(); ++i) {
    const Bytes limit = obs::kDarshanSizeLimits[i];
    SizeHistogram h;
    h.record(limit - 1);
    h.record(limit);
    EXPECT_EQ(h.counts[i], 1u) << "limit " << i;
    EXPECT_EQ(h.counts[i + 1], 1u) << "limit " << i;

    obs::MetricsRegistry registry;
    obs::Histogram& observed =
        registry.histogram("sizes", obs::darshan_size_bounds());
    observed.observe(static_cast<double>(limit - 1));
    observed.observe(static_cast<double>(limit));
    const std::vector<std::uint64_t> expected(h.counts.begin(),
                                              h.counts.end());
    EXPECT_EQ(registry.snapshot().histogram("sizes")->counts, expected);
  }
}

TEST(PfsSimulator, CountersRecordAccessSizes) {
  PfsSimulator fs;
  fs.create("/h", 0.0);
  fs.write("/h", 0.0, 0, 512);
  fs.write("/h", 0.0, 512, 8 * MiB);
  fs.read("/h", 1.0, 0, 32 * KiB);
  EXPECT_EQ(fs.counters().write_sizes.counts[0], 1u);
  EXPECT_EQ(fs.counters().write_sizes.counts[3], 1u);
  EXPECT_EQ(fs.counters().read_sizes.counts[1], 1u);
  EXPECT_EQ(fs.counters().write_sizes.total(), 2u);
}

TEST(PfsSimulator, RoundRobinOstPlacementSpreadsFiles) {
  PfsSimulator fs;
  CreateOptions one;
  one.stripe_count = 1;
  fs.create("/a", 0.0, one);
  fs.create("/b", 0.0, one);
  EXPECT_NE(fs.file_layout("/a").ost_offset(),
            fs.file_layout("/b").ost_offset());
}

/// Property: time to write N bytes is monotone non-decreasing in N.
class PfsMonotoneProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(PfsMonotoneProperty, WriteTimeMonotoneInSize) {
  const unsigned stripes = GetParam();
  SimSeconds previous = 0.0;
  for (Bytes size = 1 * MiB; size <= 64 * MiB; size *= 2) {
    PfsSimulator fs;
    CreateOptions opts;
    opts.stripe_count = stripes;
    fs.create("/m", 0.0, opts);
    const SimSeconds done = fs.write("/m", 0.0, 0, size);
    EXPECT_GE(done, previous);
    previous = done;
  }
}

INSTANTIATE_TEST_SUITE_P(StripeCounts, PfsMonotoneProperty,
                         ::testing::Values(1u, 2u, 8u, 32u, 64u));

TEST(StripeLayout, VisitorMatchesSplit) {
  StripeLayout layout(1 * MiB, 4, 2, 8);
  const Bytes offset = 512 * KiB;
  const Bytes length = 13 * MiB + 777;
  const auto pieces = layout.split(offset, length);
  std::vector<StripeExtent> visited;
  layout.for_each_extent(offset, length, [&](const StripeExtent& piece) {
    visited.push_back(piece);
  });
  ASSERT_EQ(visited.size(), pieces.size());
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    EXPECT_EQ(visited[i].ost, pieces[i].ost);
    EXPECT_EQ(visited[i].object_offset, pieces[i].object_offset);
    EXPECT_EQ(visited[i].file_offset, pieces[i].file_offset);
    EXPECT_EQ(visited[i].length, pieces[i].length);
  }
}

/// The division-based stripe walk for_each_extent replaced: every piece
/// divides its own file offset to find its OST and object offset, and
/// adjacent pieces on one OST object are coalesced. Kept as the oracle.
std::vector<StripeExtent> reference_extents(const StripeLayout& layout,
                                            unsigned total_osts, Bytes offset,
                                            Bytes length) {
  const Bytes stripe_size = layout.stripe_size();
  const unsigned stripe_count = layout.stripe_count();
  auto ost_for = [&](Bytes at) {
    const Bytes stripe_index = at / stripe_size;
    const auto within = static_cast<unsigned>(stripe_index % stripe_count);
    return (layout.ost_offset() + within) % total_osts;
  };
  auto object_offset_for = [&](Bytes at) {
    const Bytes stripe_index = at / stripe_size;
    const Bytes round = stripe_index / stripe_count;
    return round * stripe_size + at % stripe_size;
  };
  std::vector<StripeExtent> out;
  Bytes cursor = offset;
  Bytes remaining = length;
  StripeExtent pending;
  bool have_pending = false;
  while (remaining > 0) {
    const Bytes within_stripe = cursor % stripe_size;
    const Bytes piece_len = std::min(remaining, stripe_size - within_stripe);
    StripeExtent piece{ost_for(cursor), object_offset_for(cursor), cursor,
                       piece_len};
    if (have_pending && pending.ost == piece.ost &&
        pending.object_offset + pending.length == piece.object_offset) {
      pending.length += piece_len;
    } else {
      if (have_pending) out.push_back(pending);
      pending = piece;
      have_pending = true;
    }
    cursor += piece_len;
    remaining -= piece_len;
  }
  if (have_pending) out.push_back(pending);
  return out;
}

TEST(StripeLayout, IncrementalWalkMatchesDivisionOracle) {
  Rng rng(0x57121BE);
  const Bytes sizes[] = {1, 3, 4 * KiB, 64 * KiB + 1, 1 * MiB, 4 * MiB};
  unsigned cases = 0;
  for (int layout_case = 0; layout_case < 400; ++layout_case) {
    const Bytes stripe_size =
        layout_case % 3 == 0
            ? static_cast<Bytes>(rng.uniform_int(1, 2 * MiB))
            : sizes[rng.index(std::size(sizes))];
    const auto total_osts = static_cast<unsigned>(rng.uniform_int(1, 64));
    // A third each: one stripe, every OST, anything in between (or
    // beyond the pool, which the layout clamps).
    unsigned stripe_count = 1;
    if (layout_case % 3 == 1) stripe_count = total_osts;
    if (layout_case % 3 == 2) {
      stripe_count = static_cast<unsigned>(rng.uniform_int(1, 80));
    }
    const auto ost_offset =
        static_cast<unsigned>(rng.uniform_int(0, 3 * total_osts));
    const StripeLayout layout(stripe_size, stripe_count, ost_offset,
                              total_osts);
    const Bytes round_bytes = stripe_size * layout.stripe_count();
    for (int request = 0; request < 30; ++request, ++cases) {
      const Bytes offset =
          static_cast<Bytes>(rng.uniform_int(0, 50 * round_bytes));
      Bytes length = 0;
      switch (request % 5) {
        case 0: length = 0; break;
        case 1: length = 1; break;
        case 2:
          length = static_cast<Bytes>(rng.uniform_int(1, 2 * stripe_size));
          break;
        default:  // several rounds, unaligned at both ends
          length = static_cast<Bytes>(rng.uniform_int(2, 5)) * round_bytes +
                   static_cast<Bytes>(rng.uniform_int(0, round_bytes));
          break;
      }
      std::vector<StripeExtent> visited;
      layout.for_each_extent(offset, length, [&](const StripeExtent& piece) {
        visited.push_back(piece);
      });
      const std::vector<StripeExtent> expected =
          reference_extents(layout, total_osts, offset, length);
      ASSERT_EQ(visited.size(), expected.size())
          << "stripe " << stripe_size << " x" << layout.stripe_count()
          << " of " << total_osts << " from " << ost_offset << ", extent "
          << offset << "+" << length;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(visited[i].ost, expected[i].ost);
        ASSERT_EQ(visited[i].object_offset, expected[i].object_offset);
        ASSERT_EQ(visited[i].file_offset, expected[i].file_offset);
        ASSERT_EQ(visited[i].length, expected[i].length);
      }
    }
  }
  EXPECT_GE(cases, 10000u);
}

TEST(PfsSimulator, HandleApiMatchesPathApi) {
  PfsSimulator by_path;
  PfsSimulator by_handle;
  by_path.create("/h", 0.0);
  const OpenResult opened = by_handle.create_file("/h", 0.0);
  for (int i = 0; i < 4; ++i) {
    const Bytes offset = static_cast<Bytes>(i) * 3 * MiB;
    const SimSeconds a = by_path.write("/h", 1.0 + i, offset, 3 * MiB);
    const SimSeconds b = by_handle.write(opened.handle, 1.0 + i, offset, 3 * MiB);
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(by_path.read("/h", 10.0, 1 * MiB, 4 * MiB),
            by_handle.read(opened.handle, 10.0, 1 * MiB, 4 * MiB));
  EXPECT_EQ(by_path.file_size("/h"), by_handle.file_size(opened.handle));
  EXPECT_EQ(by_path.counters().bytes_written,
            by_handle.counters().bytes_written);
}

TEST(PfsSimulator, FindFileChargesNoMetadataOp) {
  PfsSimulator fs;
  EXPECT_FALSE(fs.find_file("/q").has_value());
  const OpenResult opened = fs.create_file("/q", 0.0);
  const std::uint64_t metadata_ops = fs.counters().metadata_ops;
  const std::optional<FileHandle> found = fs.find_file("/q");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, opened.handle);
  EXPECT_EQ(fs.counters().metadata_ops, metadata_ops);
}

TEST(PfsSimulator, CreateOnExistingPathTruncates) {
  PfsSimulator fs;
  const OpenResult first = fs.create_file("/t", 0.0);
  fs.write(first.handle, 0.0, 0, 4 * MiB);
  EXPECT_EQ(fs.file_size("/t"), 4 * MiB);
  const OpenResult again = fs.create_file("/t", 1.0);
  EXPECT_EQ(again.handle, first.handle);  // slot reused
  EXPECT_EQ(fs.file_size("/t"), 0u);
}

TEST(PfsSimulator, RemovedFileStaysUsableThroughHandle) {
  // POSIX unlinked-descriptor semantics: remove() drops the name, not the
  // open file.
  PfsSimulator fs;
  const OpenResult opened = fs.create_file("/u", 0.0);
  fs.write(opened.handle, 0.0, 0, 1 * MiB);
  fs.remove("/u", 1.0);
  EXPECT_FALSE(fs.exists("/u"));
  EXPECT_NO_THROW(fs.write(opened.handle, 2.0, 1 * MiB, 1 * MiB));
  EXPECT_EQ(fs.file_size(opened.handle), 2 * MiB);
}

TEST(PfsSimulator, HandleSequentialDetectionSurvivesQuiesce) {
  // Two appends: the second is sequential and skips the RMW penalty. After
  // quiesce() the OST history is wiped, so the same append pays it again.
  PfsSimulator fs;
  CreateOptions opts;
  opts.stripe_count = 1;
  const OpenResult opened = fs.create_file("/s", 0.0, opts);
  const Bytes odd = 1 * MiB + 4096;  // not stripe-aligned at the tail
  fs.write(opened.handle, 0.0, 0, odd);
  const SimSeconds warm_start = 100.0;
  const SimSeconds warm = fs.write(opened.handle, warm_start, odd, odd);
  fs.quiesce();
  const SimSeconds cold = fs.write(opened.handle, warm_start, odd, odd);
  EXPECT_GT(cold, warm);
}

}  // namespace
}  // namespace tunio::pfs
