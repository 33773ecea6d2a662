#include "harness/spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace jobbench {

namespace {

struct Buffer {
  std::uint64_t thread_index = 0;
  std::uint64_t next_local_id = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};

// Buffers outlive their threads (engine workers exit before the run's
// spans are collected), so the registry owns them.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>>& buffers() {
  static std::vector<std::unique_ptr<Buffer>> all;
  return all;
}

Buffer& local_buffer() {
  static thread_local Buffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    auto owned = std::make_unique<Buffer>();
    owned->thread_index = buffers().size() + 1;
    owned->spans.reserve(4096);
    buffers().push_back(std::move(owned));
    return buffers().back().get();
  }();
  return *buffer;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t new_span_id() {
  Buffer& buffer = local_buffer();
  return (buffer.thread_index << 40) | ++buffer.next_local_id;
}

void record(const Span& span) {
  if (!enabled()) return;
  local_buffer().spans.push_back(span);
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const std::unique_ptr<Buffer>& buffer : buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t job,
                       std::uint64_t parent) {
  if (!enabled()) return;
  span_.name = name;
  span_.job = job;
  span_.parent = parent;
  span_.id = new_span_id();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (span_.id == 0) return;
  span_.end_ns = now_ns();
  record(span_);
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (open && start <= run_end) {
      run_end = std::max(run_end, end);
      continue;
    }
    if (open) total += run_end - run_start;
    run_start = start;
    run_end = end;
    open = true;
  }
  if (open) total += run_end - run_start;
  return total;
}

std::int64_t self_ns(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
  clipped.reserve(children.size());
  for (const Span& child : children) {
    clipped.emplace_back(std::max(child.start_ns, parent.start_ns),
                         std::min(child.end_ns, parent.end_ns));
  }
  return parent.duration_ns() - covered_ns(std::move(clipped));
}

}  // namespace jobbench
