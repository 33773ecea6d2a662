// File striping layout, mirroring Lustre's RAID-0 object layout.
//
// A file is striped round-robin across `stripe_count` OSTs in units of
// `stripe_size` bytes (Lustre's `striping_factor` and `striping_unit`
// tunables). `StripeLayout::split` decomposes a byte extent of the file
// into the per-OST object extents it touches — the exact mapping Lustre
// clients perform before issuing RPCs to storage servers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace tunio::pfs {

/// One contiguous piece of a file extent that lands on a single OST.
struct StripeExtent {
  unsigned ost = 0;           ///< absolute OST index serving this piece
  Bytes object_offset = 0;    ///< offset within that OST's backing object
  Bytes file_offset = 0;      ///< offset within the file
  Bytes length = 0;
};

class StripeLayout {
 public:
  /// `ost_offset` is the index of the first OST used by this file (Lustre
  /// spreads file start OSTs to balance load); `total_osts` is the pool.
  StripeLayout(Bytes stripe_size, unsigned stripe_count, unsigned ost_offset,
               unsigned total_osts);

  Bytes stripe_size() const { return stripe_size_; }
  unsigned stripe_count() const { return stripe_count_; }
  unsigned ost_offset() const { return ost_offset_; }

  /// Decomposes the file extent [offset, offset+length) into per-OST
  /// pieces, in ascending file-offset order. Adjacent pieces on the same
  /// OST (possible when stripe_count == 1) are coalesced.
  std::vector<StripeExtent> split(Bytes offset, Bytes length) const;

  /// Visitor form of split(): invokes `visit(const StripeExtent&)` for
  /// each coalesced piece without materializing a vector. This is the
  /// simulator's inner loop — every simulated read/write decomposes its
  /// extent — so it must not allocate, and it divides only once per
  /// request: the stripe slot, the round and the OST are then stepped
  /// piece by piece.
  ///
  /// Coalescing only ever happens when stripe_count == 1. With more
  /// stripes, consecutive pieces sit in consecutive slots, and distinct
  /// slots map to distinct OSTs because stripe_count <= total_osts. With
  /// one stripe, the object offset equals the file offset, so the whole
  /// request is a single extent.
  template <typename Visitor>
  void for_each_extent(Bytes offset, Bytes length, Visitor&& visit) const {
    if (length == 0) return;
    if (stripe_count_ == 1) {
      visit(StripeExtent{first_ost_, offset, offset, length});
      return;
    }
    const Bytes stripe_index = offset / stripe_size_;
    const Bytes within = offset % stripe_size_;
    unsigned slot = static_cast<unsigned>(stripe_index % stripe_count_);
    unsigned ost = (ost_offset_ + slot) % total_osts_;
    Bytes round_base = stripe_index / stripe_count_ * stripe_size_;
    StripeExtent piece{ost, round_base + within, offset,
                       std::min(length, stripe_size_ - within)};
    Bytes remaining = length;
    for (;;) {
      visit(piece);
      remaining -= piece.length;
      if (remaining == 0) return;
      piece.file_offset += piece.length;
      if (++slot == stripe_count_) {
        slot = 0;
        round_base += stripe_size_;
        ost = first_ost_;
      } else if (++ost == total_osts_) {
        ost = 0;
      }
      piece.ost = ost;
      piece.object_offset = round_base;
      piece.length = std::min(remaining, stripe_size_);
    }
  }

  /// The OST serving a given file offset.
  unsigned ost_for(Bytes offset) const;

  /// Offset within the OST object backing a given file offset.
  Bytes object_offset_for(Bytes offset) const;

 private:
  Bytes stripe_size_;
  unsigned stripe_count_;
  unsigned ost_offset_;
  unsigned total_osts_;
  unsigned first_ost_;  ///< OST of stripe slot 0
};

}  // namespace tunio::pfs
