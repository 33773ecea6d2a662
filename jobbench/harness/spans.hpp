// Span recording for the traced benchmark run.
//
// The benchmark times its own calls into the TunIO modules (job, lint,
// discovery, replay gate, evaluation batch, single evaluation, server
// queue) and records one span per call: name, start, end, parent span,
// job id. Spans go into an in-memory buffer owned by the recording
// thread, so recording takes no lock; a thread registers its buffer
// once, on its first span. `collect()` gathers every buffer when the
// run ends, after the threads that recorded have finished their work.
//
// Recording is off unless `set_enabled(true)`: the untraced run pays one
// relaxed load per would-be span.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace jobbench {

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< 0 = not part of a job

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Monotonic clock reading in nanoseconds.
std::int64_t now_ns();

void set_enabled(bool on);
bool enabled();

/// A process-unique span id (never 0).
std::uint64_t new_span_id();

/// Appends `span` to the calling thread's buffer (no-op when disabled).
void record(const Span& span);

/// Moves every thread's spans out (buffers are left empty). Call only
/// while no thread records.
std::vector<Span> collect();

/// Records a span over its own lifetime on the constructing thread.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t job, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
};

/// Total length of the union of half-open intervals [first, second).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>
                            intervals);

/// Self time of `parent`: its duration minus the part of its interval
/// that `children` cover (children are clipped to the parent; overlapping
/// children count once).
std::int64_t self_ns(const Span& parent, const std::vector<Span>& children);

}  // namespace jobbench
