// Structured event tracing: Chrome-trace-format spans over simulated
// time, recordable from every layer of the stack.
//
// A whole tuning run — per-rank I/O phases, individual PFS request
// lifetimes, MPI collectives, GA generations, RL agent decisions — is
// captured as complete-events ("ph":"X") and written as a JSON document
// that chrome://tracing and Perfetto open directly.
//
// Cost model: tracing is off by default and every instrumented call site
// guards on `enabled()` — one relaxed atomic load — before building any
// event, so the disabled path adds near-zero work to the simulators'
// hot loops. When enabled, events append to a bounded in-memory buffer
// under a mutex; once the cap is reached further *data-plane* events
// (per-request PFS/MPI spans, millions per tuning run) are counted as
// dropped instead of growing without bound, while generation-bounded
// control-plane events (run phases, GA generations, RL decisions) are
// always kept.
//
// Timebases: the stack records *simulated* seconds. Two clock domains
// coexist — each evaluation's testbed starts at t=0 (pids `kPidStack`,
// `kPidRun`), while tuner/RL events run on the cumulative tuning-budget
// clock (pids `kPidTuner`, `kPidRl`). Each domain gets its own pid so
// trace viewers show them as separate processes. Layers that have no
// natural clock of their own (the RL agents are called between
// generations) stamp events with the thread-local *ambient* timestamp
// their caller published via `set_ambient_seconds`.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace tunio::obs {

/// Trace process ids: one per clock domain / component family.
inline constexpr std::uint32_t kPidStack = 1;  ///< PFS + MPI, per-run clock
inline constexpr std::uint32_t kPidRun = 2;    ///< metered run phases
inline constexpr std::uint32_t kPidTuner = 3;  ///< GA, tuning-budget clock
inline constexpr std::uint32_t kPidRl = 4;     ///< RL decisions

struct TraceEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;   ///< simulated microseconds
  double dur_us = 0.0;  ///< 0 => instant event
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  /// Rendered as the event's "args" object; values are raw JSON
  /// fragments (use obs::json_number / obs::json_quote when building).
  std::vector<std::pair<std::string, std::string>> args;
};

class Tracer {
 public:
  /// One relaxed load — the guard every instrumented call site uses.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  /// Records a complete-event span over [start, end] simulated seconds.
  /// No-op (after the atomic check) when disabled.
  void span(std::string cat, std::string name, SimSeconds start,
            SimSeconds end, std::uint32_t pid, std::uint32_t tid,
            std::vector<std::pair<std::string, std::string>> args = {});

  /// Records an instant event at `at` simulated seconds.
  void instant(std::string cat, std::string name, SimSeconds at,
               std::uint32_t pid, std::uint32_t tid,
               std::vector<std::pair<std::string, std::string>> args = {});

  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Buffer cap for data-plane events (`kPidStack`); spans beyond it
  /// are dropped and counted. Control-plane events (runs, tuner, RL)
  /// are generation-bounded and always kept. Applies to future records
  /// only.
  void set_capacity(std::size_t max_events);

  void clear();

  /// Serializes the buffer as a Chrome-trace JSON document
  /// (`{"traceEvents": [...], ...}`), including process-name metadata
  /// and a `droppedEvents` count.
  std::string to_json() const;

  /// Writes `to_json()` to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;

  /// The process-wide tracer all built-in instrumentation records into.
  static Tracer& global() {
    static Tracer* tracer = new Tracer();  // never destroyed
    return *tracer;
  }

  /// Ambient simulated time for layers without a clock of their own.
  /// Thread-local: concurrent tuning jobs each publish their own.
  static void set_ambient_seconds(SimSeconds t);
  static SimSeconds ambient_seconds();

 private:
  void record(TraceEvent event);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::size_t capacity_ = 1u << 18;  ///< 262144 events (~50 MB of JSON)
};

}  // namespace tunio::obs
