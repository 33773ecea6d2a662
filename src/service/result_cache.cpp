#include "service/result_cache.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace tunio::service {

namespace {

/// Cached registry handles (see PfsMetrics for the pattern rationale).
struct CacheMetrics {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& evictions;
  obs::Gauge& seconds_saved;

  static CacheMetrics& get() {
    static CacheMetrics* metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
      return new CacheMetrics{
          registry.counter("service.cache.hits"),
          registry.counter("service.cache.misses"),
          registry.counter("service.cache.insertions"),
          registry.counter("service.cache.evictions"),
          registry.gauge("service.cache.seconds_saved"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

std::size_t ResultCache::KeyHash::operator()(const Key& key) const {
  return static_cast<std::size_t>(
      derive_stream(key.fingerprint, hash_indices(key.genome)));
}

ResultCache::ResultCache(CacheOptions options) {
  TUNIO_CHECK_MSG(options.shards > 0, "cache needs at least one shard");
  TUNIO_CHECK_MSG(options.capacity > 0, "cache needs nonzero capacity");
  per_shard_capacity_ = std::max<std::size_t>(
      1, (options.capacity + options.shards - 1) / options.shards);
  shards_.reserve(options.shards);
  for (unsigned i = 0; i < options.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

ResultCache::Shard& ResultCache::shard_for(const Key& key) {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

const ResultCache::Shard& ResultCache::shard_for(const Key& key) const {
  return *shards_[KeyHash{}(key) % shards_.size()];
}

std::optional<tuner::Evaluation> ResultCache::get(
    std::uint64_t fingerprint, const std::vector<std::size_t>& genome) {
  const Key key{fingerprint, genome};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(&key);
  if (it == shard.index.end()) {
    ++shard.misses;
    CacheMetrics::get().misses.add(1);
    return std::nullopt;
  }
  ++shard.hits;
  CacheMetrics::get().hits.add(1);
  CacheMetrics::get().seconds_saved.add(it->second->second.eval_seconds);
  shard.seconds_saved += it->second->second.eval_seconds;
  // Refresh recency.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ResultCache::put(std::uint64_t fingerprint,
                      const std::vector<std::size_t>& genome,
                      const tuner::Evaluation& eval) {
  Key key{fingerprint, genome};
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.index.find(&key);
  if (it != shard.index.end()) {
    it->second->second = eval;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(std::move(key), eval);
  shard.index.emplace(&shard.lru.front().first, shard.lru.begin());
  ++shard.insertions;
  CacheMetrics::get().insertions.add(1);
  if (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(&shard.lru.back().first);
    shard.lru.pop_back();
    ++shard.evictions;
    CacheMetrics::get().evictions.add(1);
  }
}

ResultCache::Stats ResultCache::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total.hits += shard->hits;
    total.misses += shard->misses;
    total.insertions += shard->insertions;
    total.evictions += shard->evictions;
    total.entries += shard->lru.size();
    total.seconds_saved += shard->seconds_saved;
  }
  return total;
}

std::size_t ResultCache::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    n += shard->lru.size();
  }
  return n;
}

void ResultCache::clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->lru.clear();
    shard->index.clear();
  }
}

namespace {

/// Shortest round-trip rendering of a double.
std::string render_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal recursive-descent reader for the documents `to_json` emits
/// (whitespace-tolerant, field order fixed). Not a general JSON parser —
/// the cache owns both ends of the wire.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    TUNIO_CHECK_MSG(pos_ < text_.size() && text_[pos_] == c,
                    std::string("cache JSON: expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_key(const std::string& name) {
    expect('"');
    TUNIO_CHECK_MSG(text_.compare(pos_, name.size(), name) == 0,
                    "cache JSON: expected key \"" + name + "\"");
    pos_ += name.size();
    expect('"');
    expect(':');
  }

  double number() {
    skip_ws();
    std::size_t end = pos_;
    while (end < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[end])) ||
            text_[end] == '-' || text_[end] == '+' || text_[end] == '.' ||
            text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
    }
    TUNIO_CHECK_MSG(end > pos_, "cache JSON: expected a number");
    const double value = std::stod(text_.substr(pos_, end - pos_));
    pos_ = end;
    return value;
  }

  std::uint64_t unsigned_number() {
    return static_cast<std::uint64_t>(number());
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string ResultCache::to_json() const {
  std::ostringstream out;
  out << "{\"entries\":[";
  bool first = true;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    // Oldest first, so replaying the document into a fresh cache leaves
    // the most recently used entries freshest.
    for (auto it = shard->lru.rbegin(); it != shard->lru.rend(); ++it) {
      if (!first) out << ",";
      first = false;
      out << "{\"fingerprint\":" << it->first.fingerprint << ",\"genome\":[";
      for (std::size_t g = 0; g < it->first.genome.size(); ++g) {
        if (g > 0) out << ",";
        out << it->first.genome[g];
      }
      out << "],\"perf_mbps\":" << render_double(it->second.perf_mbps)
          << ",\"eval_seconds\":" << render_double(it->second.eval_seconds)
          << "}";
    }
  }
  out << "]}";
  return out.str();
}

std::size_t ResultCache::load_json(const std::string& json) {
  JsonReader reader(json);
  reader.expect('{');
  reader.expect_key("entries");
  reader.expect('[');
  std::size_t loaded = 0;
  if (!reader.consume(']')) {
    do {
      reader.expect('{');
      reader.expect_key("fingerprint");
      const std::uint64_t fingerprint = reader.unsigned_number();
      reader.expect(',');
      reader.expect_key("genome");
      reader.expect('[');
      std::vector<std::size_t> genome;
      if (!reader.consume(']')) {
        do {
          genome.push_back(static_cast<std::size_t>(reader.unsigned_number()));
        } while (reader.consume(','));
        reader.expect(']');
      }
      reader.expect(',');
      reader.expect_key("perf_mbps");
      tuner::Evaluation eval;
      eval.perf_mbps = reader.number();
      reader.expect(',');
      reader.expect_key("eval_seconds");
      eval.eval_seconds = reader.number();
      reader.expect('}');
      put(fingerprint, genome, eval);
      ++loaded;
    } while (reader.consume(','));
    reader.expect(']');
  }
  reader.expect('}');
  return loaded;
}

bool ResultCache::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool ResultCache::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  load_json(buffer.str());
  return true;
}

}  // namespace tunio::service
