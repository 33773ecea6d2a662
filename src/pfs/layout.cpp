#include "pfs/layout.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tunio::pfs {

StripeLayout::StripeLayout(Bytes stripe_size, unsigned stripe_count,
                           unsigned ost_offset, unsigned total_osts)
    : stripe_size_(stripe_size),
      stripe_count_(stripe_count),
      ost_offset_(ost_offset),
      total_osts_(total_osts) {
  TUNIO_CHECK_MSG(stripe_size_ > 0, "stripe size must be positive");
  TUNIO_CHECK_MSG(stripe_count_ > 0, "stripe count must be positive");
  TUNIO_CHECK_MSG(total_osts_ > 0, "OST pool must be non-empty");
  stripe_count_ = std::min(stripe_count_, total_osts_);
  first_ost_ = ost_offset_ % total_osts_;
}

unsigned StripeLayout::ost_for(Bytes offset) const {
  const Bytes stripe_index = offset / stripe_size_;
  const auto within = static_cast<unsigned>(stripe_index % stripe_count_);
  return (ost_offset_ + within) % total_osts_;
}

Bytes StripeLayout::object_offset_for(Bytes offset) const {
  const Bytes stripe_index = offset / stripe_size_;
  const Bytes round = stripe_index / stripe_count_;
  return round * stripe_size_ + offset % stripe_size_;
}

std::vector<StripeExtent> StripeLayout::split(Bytes offset,
                                              Bytes length) const {
  std::vector<StripeExtent> pieces;
  for_each_extent(offset, length,
                  [&pieces](const StripeExtent& piece) { pieces.push_back(piece); });
  return pieces;
}

}  // namespace tunio::pfs
