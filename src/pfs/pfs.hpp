// A discrete-time Lustre-like parallel file system simulator.
//
// This is the storage substrate underneath the whole TunIO stack. It
// models the pieces of a Lustre deployment whose interactions the tuned
// parameters (`striping_factor`, `striping_unit`, alignment, collective
// buffering) actually exercise:
//
//   * a pool of OSTs, each a serially shared device with seek latency,
//     streaming bandwidth, per-request overhead, and a read-modify-write
//     penalty for partial-block writes;
//   * a metadata server (MDS) with per-op latency, serially shared;
//   * a shared interconnect with aggregate bandwidth and message latency;
//   * a memory tier (think `/dev/shm`) used by TunIO's I/O path
//     switching transformation.
//
// All operations take the caller's simulated clock and return the
// completion time; contention between concurrent callers emerges from
// the shared `ResourceTimeline`s.
//
// Files can be addressed two ways. `create_file`/`open_file` return an
// integer `FileHandle`; the handle-taking `read`/`write`/`file_size`/...
// overloads are the hot path — no per-op string hashing. The path-based
// API is kept as a thin wrapper (one hash lookup per call) for cold-path
// callers. Handles stay valid until `reset()`; like a POSIX fd held
// across unlink, a handle outlives `remove()` of its path.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timeline.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "pfs/layout.hpp"

namespace tunio::pfs {

/// Storage tier a file lives on.
enum class Tier {
  kDisk,    ///< striped across OSTs (Lustre scratch)
  kMemory,  ///< node-local memory (I/O path switching target)
};

/// Cost model for one OST.
struct OstProfile {
  SimSeconds seek_latency = 3e-3;       ///< per discontiguous request
  Bps stream_bandwidth = 2.8 * GB;      ///< sustained per-OST throughput
  SimSeconds request_overhead = 150e-6; ///< fixed RPC/service overhead
  Bytes rmw_block = 1 * MiB;            ///< write granularity of the device
  double rmw_read_factor = 1.0;         ///< cost multiple for RMW pre-reads
};

/// Cost model for the metadata server.
struct MdsProfile {
  SimSeconds op_latency = 800e-6;  ///< create/open/stat/close service time
};

/// Cost model for the interconnect between compute nodes and servers.
/// The aggregate bandwidth is *job-scoped*: a 4-node job can only inject
/// ~nodes × NIC bandwidth into the fabric regardless of its total
/// capacity. The 500-node end-to-end experiment raises this accordingly.
struct NetworkProfile {
  Bps aggregate_bandwidth = 40 * GB;  ///< 4 nodes × ~10 GB/s injection
  SimSeconds message_latency = 5e-6;
};

/// Cost model for the memory tier.
struct MemoryProfile {
  Bps bandwidth = 12 * GB;  ///< per-process memcpy-like bandwidth
  SimSeconds latency = 1e-6;
};

/// Whole-system profile. Defaults approximate Cori's scratch filesystem
/// scaled to the 4-node/128-process experiments of the paper.
struct PfsProfile {
  unsigned num_osts = 64;
  OstProfile ost;
  MdsProfile mds;
  NetworkProfile network;
  MemoryProfile memory;
  Bytes default_stripe_size = 1 * MiB;   ///< Lustre default striping_unit
  unsigned default_stripe_count = 1;     ///< Lustre default striping_factor
};

/// Access-size histogram over Darshan's condensed POSIX_SIZE_* buckets
/// (`obs::kDarshanSizeLimits`): <4 KiB, 4–64 KiB, 64 KiB–1 MiB,
/// 1–16 MiB, ≥16 MiB.
struct SizeHistogram {
  static constexpr std::size_t kBuckets = obs::kDarshanSizeBuckets;
  std::array<std::uint64_t, kBuckets> counts{};
  /// Largest access recorded. A running maximum: a difference of two
  /// snapshots keeps the later one's.
  Bytes max = 0;

  void record(Bytes size);
  std::uint64_t total() const;
  /// Bucket label for reports ("4K-64K", ...).
  static const char* label(std::size_t bucket);

  SizeHistogram& operator-=(const SizeHistogram& other);
};

/// Aggregate operation counters (Darshan-style, PFS layer).
struct PfsCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  Bytes bytes_read = 0;
  Bytes bytes_written = 0;
  std::uint64_t metadata_ops = 0;
  Bytes rmw_bytes = 0;  ///< extra bytes pre-read by partial-block writes
  SizeHistogram read_sizes;
  SizeHistogram write_sizes;

  PfsCounters& operator-=(const PfsCounters& other);
};

/// Striping policy requested at file creation.
struct CreateOptions {
  std::optional<Bytes> stripe_size;      ///< default: profile default
  std::optional<unsigned> stripe_count;  ///< default: profile default
  Tier tier = Tier::kDisk;
};

/// One completed client-level I/O request (what a Darshan wrapper sees).
struct IoRequest {
  bool is_write = false;
  Bytes bytes = 0;
  SimSeconds start = 0.0;  ///< caller's clock when the request was issued
  SimSeconds end = 0.0;    ///< completion time
};

/// Observes every completed read/write against a simulator — the hook
/// `RunMeter` uses to recover op-level I/O windows for runs that never
/// mark phases, without polling counters.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_io(const IoRequest& request) = 0;
};

/// Stable identifier for an open simulated file (see header comment).
using FileHandle = std::uint32_t;

/// Result of resolving a file to a handle: the handle plus the
/// completion time of the MDS operation that produced it.
struct OpenResult {
  FileHandle handle = 0;
  SimSeconds done = 0.0;
};

class PfsSimulator {
 public:
  explicit PfsSimulator(PfsProfile profile = {});
  /// Flushes this simulator's accumulated counters into the global
  /// metrics registry (`pfs.*` series).
  ~PfsSimulator();

  PfsSimulator(const PfsSimulator&) = delete;
  PfsSimulator& operator=(const PfsSimulator&) = delete;

  const PfsProfile& profile() const { return profile_; }

  /// Creates (or truncates) a file; returns its handle and the
  /// completion time of the MDS op. Re-creating an existing path reuses
  /// its handle (truncate semantics: old handles see the new file).
  OpenResult create_file(const std::string& path, SimSeconds start,
                         const CreateOptions& options = {});

  /// Opens an existing file (MDS op). Throws if absent.
  OpenResult open_file(const std::string& path, SimSeconds start);

  /// Resolves a path to its handle without charging an MDS op — the
  /// analogue of consulting an already-cached dentry. Empty if absent.
  std::optional<FileHandle> find_file(const std::string& path) const;

  /// Creates (or truncates) a file; returns completion time of the MDS op.
  SimSeconds create(const std::string& path, SimSeconds start,
                    const CreateOptions& options = {});

  /// Opens an existing file (MDS op). Throws if absent.
  SimSeconds open(const std::string& path, SimSeconds start);

  /// Removes a file if present (MDS op). Outstanding handles keep
  /// working, like a POSIX fd held across unlink.
  SimSeconds remove(const std::string& path, SimSeconds start);

  /// A pure-metadata operation against the MDS (stat, attr update, ...).
  SimSeconds metadata_op(SimSeconds start);

  /// Writes [offset, offset+length); returns completion time. The handle
  /// overload is the allocation- and hash-free hot path.
  SimSeconds write(FileHandle handle, SimSeconds start, Bytes offset,
                   Bytes length);
  SimSeconds write(const std::string& path, SimSeconds start, Bytes offset,
                   Bytes length);

  /// Reads [offset, offset+length); returns completion time.
  SimSeconds read(FileHandle handle, SimSeconds start, Bytes offset,
                  Bytes length);
  SimSeconds read(const std::string& path, SimSeconds start, Bytes offset,
                  Bytes length);

  bool exists(const std::string& path) const;
  Bytes file_size(FileHandle handle) const;
  Bytes file_size(const std::string& path) const;
  Tier file_tier(FileHandle handle) const;
  Tier file_tier(const std::string& path) const;
  const StripeLayout& file_layout(FileHandle handle) const;
  const StripeLayout& file_layout(const std::string& path) const;

  const PfsCounters& counters() const { return counters_; }

  /// At most one observer at a time; nullptr detaches. The observer must
  /// outlive its registration.
  void set_io_observer(IoObserver* observer) { observer_ = observer; }
  IoObserver* io_observer() const { return observer_; }

  /// Per-OST busy time (utilization diagnostics for benches).
  std::vector<SimSeconds> ost_busy_times() const;

  /// Clears all files, timelines and counters; keeps the profile.
  void reset();

  /// Rewinds all device/network timelines to t=0 but keeps files and
  /// counters. Used to separate a run from setup I/O that happened
  /// "before" it (e.g. producing an input dataset).
  void quiesce();

 private:
  /// Sentinel for "no request serviced on this OST object yet" — never
  /// equal to a real object offset, so first accesses are non-sequential.
  static constexpr Bytes kNeverAccessed = ~Bytes{0};

  struct File {
    StripeLayout layout;
    Tier tier = Tier::kDisk;
    Bytes size = 0;
    /// Last byte serviced per OST object, to detect sequential access.
    /// Flat vector indexed by absolute OST id (kNeverAccessed = none).
    std::vector<Bytes> last_end_per_ost;
  };

  File& lookup(const std::string& path);
  const File& lookup(const std::string& path) const;
  FileHandle handle_of(const std::string& path) const;
  File& file_at(FileHandle handle);
  const File& file_at(FileHandle handle) const;

  /// Services one per-OST extent; returns completion time.
  SimSeconds service_extent(File& file, const StripeExtent& extent,
                            SimSeconds start, bool is_write);

  SimSeconds memory_io(SimSeconds start, Bytes length) const;

  /// Tells the observer and tracer about one completed request.
  void note_io(bool is_write, Bytes length, SimSeconds start, SimSeconds end);

  /// Publishes counters accumulated since the last publish (and current
  /// OST busy time) into the global metrics registry.
  void publish_metrics();

  PfsProfile profile_;
  std::vector<ResourceTimeline> osts_;
  ResourceTimeline mds_;
  SharedChannel network_;
  /// Handle-indexed file table (deque: references stay stable) plus the
  /// path index used by the wrapper API and create/open/remove.
  std::deque<File> files_;
  std::unordered_map<std::string, FileHandle> index_;
  PfsCounters counters_;
  PfsCounters flushed_;  ///< already published to the metrics registry
  IoObserver* observer_ = nullptr;
  unsigned next_ost_offset_ = 0;  ///< round-robin start OST for new files
};

}  // namespace tunio::pfs
