// Tests for the observability layer: JSON document model, metrics
// registry (including concurrent publication — run these under TSan),
// and the Chrome-trace tracer.
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace tunio::obs {
namespace {

// ---------------------------------------------------------------- Json

TEST(Json, NumberFormatting) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(-7.0), "-7");
  EXPECT_EQ(json_number(2.5), "2.5");
  // Non-finite values have no JSON representation.
  EXPECT_EQ(json_number(1.0 / 0.0), "null");
  EXPECT_EQ(json_number(0.0 / 0.0), "null");
}

TEST(Json, QuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
}

TEST(Json, BuildDumpParseRoundTrip) {
  Json doc = Json::object();
  doc.set("name", Json::string("fig01"));
  doc.set("count", Json::number(3));
  Json values = Json::array();
  values.push_back(Json::number(1.5));
  values.push_back(Json::boolean(true));
  values.push_back(Json());
  doc.set("values", std::move(values));

  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed.find("name")->as_string(), "fig01");
  EXPECT_DOUBLE_EQ(reparsed.find("count")->as_number(), 3.0);
  const Json& arr = *reparsed.find("values");
  ASSERT_EQ(arr.items().size(), 3u);
  EXPECT_DOUBLE_EQ(arr.items()[0].as_number(), 1.5);
  EXPECT_TRUE(arr.items()[1].as_bool());
  EXPECT_TRUE(arr.items()[2].is_null());
}

TEST(Json, ParseRejectsGarbage) {
  EXPECT_THROW(Json::parse("{\"a\":"), Error);
  EXPECT_THROW(Json::parse("[1, 2,]trailing"), Error);
  EXPECT_THROW(Json::parse(""), Error);
}

// ------------------------------------------------------------- Metrics

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name → same instrument.
  EXPECT_EQ(&registry.counter("test.count"), &c);

  Gauge& g = registry.gauge("test.gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Metrics, ConcurrentCountersSumExactly) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread resolves the instrument by name AND updates it —
      // exercising both the name-table lock and the lock-free updates.
      Counter& c = registry.counter("hot.counter");
      Gauge& g = registry.gauge("hot.gauge");
      Histogram& h = registry.histogram("hot.hist", {1.0, 10.0});
      for (int i = 0; i < kAdds; ++i) {
        c.add();
        g.add(1.0);
        h.observe(static_cast<double>(i % 20), "thread");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter("hot.counter"),
            static_cast<std::uint64_t>(kThreads) * kAdds);
  EXPECT_DOUBLE_EQ(snap.gauge("hot.gauge"), kThreads * double(kAdds));
  const MetricsSnapshot::HistogramValue* hist = snap.histogram("hot.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(Metrics, SnapshotIsIsolatedFromLaterUpdates) {
  MetricsRegistry registry;
  registry.counter("iso.count").add(3);
  const MetricsSnapshot before = registry.snapshot();
  registry.counter("iso.count").add(100);
  registry.gauge("iso.new_gauge").set(1.0);
  EXPECT_EQ(before.counter("iso.count"), 3u);
  EXPECT_DOUBLE_EQ(before.gauge("iso.new_gauge"), 0.0);  // absent → 0
  EXPECT_EQ(registry.snapshot().counter("iso.count"), 103u);
}

TEST(Metrics, HistogramBucketsAndExemplar) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("h", {10.0, 100.0});
  h.observe(5.0, "small");
  h.observe(50.0, "medium");
  h.observe(500.0, "large");
  h.observe(499.0, "almost");

  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot::HistogramValue* v = snap.histogram("h");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->counts.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(v->counts[0], 1u);
  EXPECT_EQ(v->counts[1], 1u);
  EXPECT_EQ(v->counts[2], 2u);
  EXPECT_EQ(v->count, 4u);
  EXPECT_DOUBLE_EQ(v->sum, 1054.0);
  EXPECT_DOUBLE_EQ(v->max, 500.0);
  EXPECT_EQ(v->exemplar, "large");  // label of the largest sample
}

TEST(Metrics, AddBucketedMergesTeardownFlushes) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("sizes", darshan_size_bounds());
  const std::size_t buckets = kDarshanSizeBuckets;
  std::vector<std::uint64_t> counts(buckets, 0);
  counts[0] = 7;
  counts[buckets - 1] = 2;
  h.add_bucketed(counts, 1234.0, 20e6);
  h.add_bucketed(counts, 1.0, 30e6);
  h.add_bucketed(std::vector<std::uint64_t>(buckets, 0), 0.0, 99e6);

  const MetricsSnapshot snap = registry.snapshot();
  const MetricsSnapshot::HistogramValue* v = snap.histogram("sizes");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counts[0], 14u);
  EXPECT_EQ(v->counts[buckets - 1], 4u);
  EXPECT_EQ(v->count, 18u);
  EXPECT_DOUBLE_EQ(v->sum, 1235.0);
  EXPECT_DOUBLE_EQ(v->max, 30e6);  // an empty merge does not move it
}

TEST(Metrics, ResetZeroesButKeepsInstrumentIdentity) {
  MetricsRegistry registry;
  Counter& c = registry.counter("r.count");
  c.add(9);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&registry.counter("r.count"), &c);  // cached refs stay valid
}

TEST(Metrics, SnapshotSerializesToParsableJson) {
  MetricsRegistry registry;
  registry.counter("s.count").add(2);
  registry.gauge("s.gauge").set(0.5);
  registry.histogram("s.hist", {1.0}).observe(3.0, "x");
  const Json doc = Json::parse(registry.snapshot().to_json().dump());
  ASSERT_NE(doc.find("counters"), nullptr);
  ASSERT_NE(doc.find("gauges"), nullptr);
  ASSERT_NE(doc.find("histograms"), nullptr);
}

// -------------------------------------------------------------- Tracer

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer;
  tracer.span("pfs", "read", 0.0, 1.0, kPidStack, 0);
  tracer.instant("rl", "decide", 2.0, kPidRl, 0);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, CapDropsDataPlaneButKeepsControlPlane) {
  Tracer tracer;
  tracer.set_capacity(4);
  tracer.enable();
  for (int i = 0; i < 10; ++i) {
    tracer.span("pfs", "write", i, i + 0.5, kPidStack, 0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Control-plane events are generation-bounded and must survive a full
  // buffer — a capped trace still has to show why the I/O happened.
  tracer.span("tuner", "generation", 0.0, 60.0, kPidTuner, 0);
  tracer.instant("rl", "early_stop.continue", 60.0, kPidRl, 0);
  EXPECT_EQ(tracer.size(), 6u);
}

TEST(Tracer, EmitsWellFormedChromeTrace) {
  Tracer tracer;
  tracer.enable();
  tracer.span("pfs", "read", 1.0, 2.0, kPidStack, 3,
              {{"bytes", json_number(4096)}});
  tracer.span("tuner", "generation", 0.0, 120.0, kPidTuner, 0,
              {{"best_mbps", json_number(123.5)},
               {"label", json_quote("gen \"0\"")}});

  const Json doc = Json::parse(tracer.to_json());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 4 process-name metadata records + the 2 spans.
  ASSERT_EQ(events->items().size(), 6u);
  EXPECT_DOUBLE_EQ(doc.find("droppedEvents")->as_number(), 0.0);

  const Json& pfs = events->items()[4];
  EXPECT_EQ(pfs.find("ph")->as_string(), "X");
  EXPECT_EQ(pfs.find("cat")->as_string(), "pfs");
  EXPECT_DOUBLE_EQ(pfs.find("ts")->as_number(), 1e6);   // seconds → µs
  EXPECT_DOUBLE_EQ(pfs.find("dur")->as_number(), 1e6);
  EXPECT_DOUBLE_EQ(pfs.find("args")->find("bytes")->as_number(), 4096.0);

  const Json& gen = events->items()[5];
  EXPECT_EQ(gen.find("args")->find("label")->as_string(), "gen \"0\"");
}

TEST(Tracer, ClearResetsBufferAndDropCount) {
  Tracer tracer;
  tracer.set_capacity(1);
  tracer.enable();
  tracer.span("pfs", "a", 0.0, 1.0, kPidStack, 0);
  tracer.span("pfs", "b", 0.0, 1.0, kPidStack, 0);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, AmbientSecondsIsThreadLocal) {
  Tracer::set_ambient_seconds(42.0);
  std::thread other([] {
    EXPECT_DOUBLE_EQ(Tracer::ambient_seconds(), 0.0);
    Tracer::set_ambient_seconds(7.0);
    EXPECT_DOUBLE_EQ(Tracer::ambient_seconds(), 7.0);
  });
  other.join();
  EXPECT_DOUBLE_EQ(Tracer::ambient_seconds(), 42.0);
}

TEST(Tracer, WriteFileProducesParsableDocument) {
  Tracer tracer;
  tracer.enable();
  tracer.span("mpi", "barrier", 0.5, 0.75, kPidStack, 1);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(tracer.write_file(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.find("traceEvents")->items().size(), 5u);
}

}  // namespace
}  // namespace tunio::obs
