#include "obs/tracer.hpp"

#include <fstream>

#include "obs/json.hpp"

namespace tunio::obs {

namespace {
thread_local SimSeconds g_ambient_seconds = 0.0;
}  // namespace

void Tracer::set_ambient_seconds(SimSeconds t) { g_ambient_seconds = t; }
SimSeconds Tracer::ambient_seconds() { return g_ambient_seconds; }

void Tracer::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The cap bounds the data-plane (per-request PFS/MPI spans, which a
  // tuning run issues by the million). Control-plane events — metered
  // run phases, GA generations, RL decisions — are bounded by the
  // generation count, so they are kept even once the buffer is full:
  // a capped trace must still show *why* the I/O happened.
  if (events_.size() >= capacity_ && event.pid == kPidStack) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::span(std::string cat, std::string name, SimSeconds start,
                  SimSeconds end, std::uint32_t pid, std::uint32_t tid,
                  std::vector<std::pair<std::string, std::string>> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.ts_us = start * 1e6;
  event.dur_us = (end > start ? end - start : 0.0) * 1e6;
  event.pid = pid;
  event.tid = tid;
  event.args = std::move(args);
  record(std::move(event));
}

void Tracer::instant(std::string cat, std::string name, SimSeconds at,
                     std::uint32_t pid, std::uint32_t tid,
                     std::vector<std::pair<std::string, std::string>> args) {
  span(std::move(cat), std::move(name), at, at, pid, tid, std::move(args));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::set_capacity(std::size_t max_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = max_events;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
}

std::string Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(events_.size() * 160 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";

  // Process-name metadata so viewers label the clock domains.
  static constexpr std::pair<std::uint32_t, const char*> kProcesses[] = {
      {kPidStack, "stack (per-run sim clock)"},
      {kPidRun, "metered runs (per-run sim clock)"},
      {kPidTuner, "tuner (budget clock)"},
      {kPidRl, "rl agents (budget clock)"},
  };
  bool first = true;
  for (const auto& [pid, label] : kProcesses) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
           ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":" +
           json_quote(label) + "}}";
  }

  for (const TraceEvent& event : events_) {
    out += ",{\"ph\":\"X\",\"name\":" + json_quote(event.name) +
           ",\"cat\":" + json_quote(event.cat) +
           ",\"ts\":" + json_number(event.ts_us) +
           ",\"dur\":" + json_number(event.dur_us) +
           ",\"pid\":" + std::to_string(event.pid) +
           ",\"tid\":" + std::to_string(event.tid);
    if (!event.args.empty()) {
      out += ",\"args\":{";
      for (std::size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) out += ",";
        out += json_quote(event.args[i].first) + ":" + event.args[i].second;
      }
      out += "}";
    }
    out += "}";
  }
  out += "],\"droppedEvents\":" +
         std::to_string(dropped_.load(std::memory_order_relaxed)) + "}";
  return out;
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace tunio::obs
