#include "common/timeline.hpp"

#include "common/error.hpp"

namespace tunio {

void ResourceTimeline::reset() {
  next_free_ = 0.0;
  busy_time_ = 0.0;
  grants_ = 0;
}

SharedChannel::SharedChannel(Bps aggregate_bandwidth,
                             SimSeconds message_latency)
    : bandwidth_(aggregate_bandwidth), latency_(message_latency) {
  TUNIO_CHECK_MSG(aggregate_bandwidth > 0.0, "channel bandwidth must be > 0");
  TUNIO_CHECK_MSG(message_latency >= 0.0, "negative channel latency");
}

void SharedChannel::reset() {
  horizon_ = 0.0;
  bytes_moved_ = 0;
  transfers_ = 0;
}

}  // namespace tunio
