// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the live-introspection layer end to end: the continuous
// profiler (obs::Monitor), the flight recorder ring and its dump format,
// the buffer heatmap, per-level read counters, and the owner-scoped
// registry bindings a Tree installs — including the stale-binding
// regression (destroy a bound tree, then snapshot) — and the one
// (name, member) list per stats struct that registration and Reset walk.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sched/scheduled_index.h"
#include "storage/io_stats.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tools/monitor_stream.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

std::string ReadAll(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// ---------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, RingWrapKeepsMostRecentEvents) {
  obs::FlightRecorder recorder(64);
  EXPECT_EQ(recorder.capacity(), 64u);
  for (uint64_t i = 0; i < 200; ++i) {
    recorder.Record(obs::FlightOp::kUpdate, i, 1.5, StatusCode::kOk, 2);
  }
  std::string path =
      ::testing::TempDir() + "/rexp_flight_wrap_test.json";
  ASSERT_TRUE(recorder.DumpToFile(path, "unit_test").ok());
  tools::JsonValue dump;
  ASSERT_TRUE(tools::ParseJson(ReadAll(path), &dump)) << ReadAll(path);
  std::remove(path.c_str());

  EXPECT_EQ(dump.Find("reason")->StringOr(""), "unit_test");
  const tools::JsonValue* events = dump.Find("events");
  ASSERT_NE(events, nullptr);
#ifdef REXP_NO_TELEMETRY
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(events->array.empty());
#else
  EXPECT_EQ(recorder.recorded(), 200u);
  EXPECT_EQ(dump.Find("dropped")->NumberOr(-1), 200.0 - 64.0);
  ASSERT_EQ(events->array.size(), 64u);
  // Oldest-first, and only the most recent capacity-many survive.
  for (size_t i = 0; i < events->array.size(); ++i) {
    const tools::JsonValue& e = events->array[i];
    EXPECT_EQ(e.Find("seq")->NumberOr(-1),
              static_cast<double>(136 + i));
    EXPECT_EQ(e.Find("oid")->NumberOr(-1), static_cast<double>(136 + i));
    EXPECT_EQ(e.Find("op")->StringOr(""), "update");
    EXPECT_EQ(e.Find("io")->NumberOr(-1), 2.0);
    EXPECT_EQ(e.Find("status")->NumberOr(-1), 0.0);
  }
#endif
}

TEST(FlightRecorderTest, WideValuesSaturateInsteadOfWrapping) {
#ifndef REXP_NO_TELEMETRY
  obs::FlightRecorder recorder(64);
  // latency_us and io are stored as 32-bit; huge inputs must clamp to
  // UINT32_MAX, not alias small values.
  recorder.Record(obs::FlightOp::kBulkLoad, 1, 1e18, StatusCode::kOk,
                  uint64_t{1} << 40);
  std::string path =
      ::testing::TempDir() + "/rexp_flight_saturate_test.json";
  ASSERT_TRUE(recorder.DumpToFile(path, "saturate").ok());
  tools::JsonValue dump;
  ASSERT_TRUE(tools::ParseJson(ReadAll(path), &dump));
  std::remove(path.c_str());
  ASSERT_EQ(dump.Find("events")->array.size(), 1u);
  const tools::JsonValue& e = dump.Find("events")->array[0];
  EXPECT_EQ(e.Find("latency_us")->NumberOr(0), 4294967295.0);
  EXPECT_EQ(e.Find("io")->NumberOr(0), 4294967295.0);
  EXPECT_EQ(e.Find("op")->StringOr(""), "bulk_load");
#endif
}

TEST(FlightRecorderTest, ConcurrentRecordsProduceParseableDump) {
#ifndef REXP_NO_TELEMETRY
  obs::FlightRecorder recorder(128);
  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < 2000; ++i) {
        recorder.Record(obs::FlightOp::kSearch,
                        static_cast<uint64_t>(t) * 10000 + i, 0.5,
                        StatusCode::kOk, 1);
      }
    });
  }
  // Dump repeatedly while writers race: torn slots are dropped, never
  // emitted as garbage, and the output always parses.
  std::string path =
      ::testing::TempDir() + "/rexp_flight_race_test.json";
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(recorder.DumpToFile(path, "race").ok());
    tools::JsonValue dump;
    ASSERT_TRUE(tools::ParseJson(ReadAll(path), &dump)) << round;
    EXPECT_LE(dump.Find("events")->array.size(), 128u);
  }
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(recorder.DumpToFile(path, "race").ok());
  tools::JsonValue dump;
  ASSERT_TRUE(tools::ParseJson(ReadAll(path), &dump));
  EXPECT_EQ(recorder.recorded(), static_cast<uint64_t>(kThreads) * 2000);
  EXPECT_EQ(dump.Find("events")->array.size(), 128u);
  std::remove(path.c_str());
#endif
}

// ---------------------------------------------------------------------
// Monitor

TEST(MonitorTest, SampleNowEmitsRatesAndIntervalPercentiles) {
#ifndef REXP_NO_TELEMETRY
  uint64_t ops = 0;
  obs::Histogram latency(obs::LatencyBoundsUs());
  obs::MetricsRegistry registry;
  registry.AddCounter("test.ops", &ops);
  registry.AddGauge("test.height", [] { return 3.0; });
  registry.AddHistogram("test.latency_us", &latency);

  obs::Monitor::Options opt;
  opt.dir = ::testing::TempDir();
  opt.name = "unit";
  obs::Monitor monitor(&registry, opt);
  monitor.AddJsonProvider("extra", [] { return std::string("[1,2]"); });
  ASSERT_TRUE(monitor.OpenStream().ok());

  ops = 500;
  for (int i = 0; i < 100; ++i) latency.Record(100.0 + i);
  monitor.SampleNow();
  monitor.Stop();

  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  std::remove(monitor.path().c_str());
  // meta + seq-0 baseline + our sample.
  ASSERT_GE(lines.size(), 3u);
  tools::JsonValue meta;
  ASSERT_TRUE(tools::ParseJson(lines[0], &meta));
  EXPECT_EQ(meta.Find("type")->StringOr(""), "monitor_meta");
  EXPECT_EQ(meta.Find("v")->NumberOr(0), 1.0);

  tools::JsonValue sample;
  ASSERT_TRUE(tools::ParseJson(lines[2], &sample));
  EXPECT_EQ(sample.Find("type")->StringOr(""), "sample");
  // Cumulative counter value plus a positive per-interval rate.
  EXPECT_EQ(sample.Find("counters")->Find("test.ops")->NumberOr(0), 500.0);
  EXPECT_GT(sample.Find("rates")->Find("test.ops")->NumberOr(0), 0.0);
  EXPECT_EQ(sample.Find("gauges")->Find("test.height")->NumberOr(0), 3.0);
  // Interval histogram: the 100 samples recorded since the baseline.
  const tools::JsonValue* hist = sample.Find("hist")->Find("test.latency_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->NumberOr(0), 100.0);
  double p50 = hist->Find("p50")->NumberOr(0);
  double p99 = hist->Find("p99")->NumberOr(0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p99);
  // Raw-JSON provider output splices in verbatim.
  const tools::JsonValue* extra = sample.Find("extra");
  ASSERT_NE(extra, nullptr);
  ASSERT_EQ(extra->array.size(), 2u);
#endif
}

TEST(MonitorTest, HistogramQuietIntervalOmittedFromHist) {
#ifndef REXP_NO_TELEMETRY
  obs::Histogram latency(obs::LatencyBoundsUs());
  latency.Record(5.0);  // Before the stream opens: baseline absorbs it.
  obs::MetricsRegistry registry;
  registry.AddHistogram("test.latency_us", &latency);
  obs::Monitor::Options opt;
  opt.dir = ::testing::TempDir();
  opt.name = "quiet";
  obs::Monitor monitor(&registry, opt);
  ASSERT_TRUE(monitor.OpenStream().ok());
  monitor.SampleNow();  // No new samples this interval.
  monitor.Stop();
  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  std::remove(monitor.path().c_str());
  ASSERT_GE(lines.size(), 3u);
  tools::JsonValue sample;
  ASSERT_TRUE(tools::ParseJson(lines[2], &sample));
  const tools::JsonValue* hist = sample.Find("hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("test.latency_us"), nullptr);
#endif
}

TEST(MonitorTest, HistogramResetBetweenSamplesTreatedAsFresh) {
#ifndef REXP_NO_TELEMETRY
  obs::Histogram latency(obs::LatencyBoundsUs());
  obs::MetricsRegistry registry;
  registry.AddHistogram("test.latency_us", &latency);
  obs::Monitor::Options opt;
  opt.dir = ::testing::TempDir();
  opt.name = "reset";
  obs::Monitor monitor(&registry, opt);
  ASSERT_TRUE(monitor.OpenStream().ok());

  for (int i = 0; i < 100; ++i) latency.Record(5000.0);
  monitor.SampleNow();

  // The nasty flavor: the histogram is reset and then regrows PAST the
  // previous cumulative count, so the count alone looks like normal
  // growth — only the vacated buckets betray the reset. Subtracting
  // across it used to produce clamped buckets and a negative mean.
  latency.Reset();
  for (int i = 0; i < 150; ++i) latency.Record(10.0);
  monitor.SampleNow();
  monitor.Stop();

  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  std::remove(monitor.path().c_str());
  ASSERT_GE(lines.size(), 4u);  // meta, baseline, sample, sample.
  tools::JsonValue sample;
  ASSERT_TRUE(tools::ParseJson(lines[3], &sample));
  const tools::JsonValue* hist = sample.Find("hist")->Find("test.latency_us");
  ASSERT_NE(hist, nullptr);
  // The cumulative post-reset state is reported as this interval's
  // delta: all 150 fresh records, with a sane positive mean near the
  // recorded value — never a negative or NaN one.
  EXPECT_EQ(hist->Find("count")->NumberOr(0), 150.0);
  double mean = hist->Find("mean")->NumberOr(-1);
  EXPECT_GT(mean, 0.0);
  EXPECT_LT(mean, 100.0);
  double p50 = hist->Find("p50")->NumberOr(-1);
  EXPECT_GE(p50, 0.0);
  EXPECT_LT(p50, 5000.0) << "percentiles must come from fresh buckets";
#endif
}

TEST(MonitorTest, CounterRegressionDoesNotEmitNegativeRate) {
#ifndef REXP_NO_TELEMETRY
  uint64_t ops = 0;
  obs::MetricsRegistry registry;
  registry.AddCounter("test.ops", &ops);
  obs::Monitor::Options opt;
  opt.dir = ::testing::TempDir();
  opt.name = "ctr_reset";
  obs::Monitor monitor(&registry, opt);
  ASSERT_TRUE(monitor.OpenStream().ok());
  ops = 100000;
  monitor.SampleNow();
  // The counter's owner cycled (re-registered from zero): the value
  // regresses. The rate must restart from zero, not spike negative.
  ops = 40;
  monitor.SampleNow();
  monitor.Stop();

  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  std::remove(monitor.path().c_str());
  ASSERT_GE(lines.size(), 4u);
  tools::JsonValue sample;
  ASSERT_TRUE(tools::ParseJson(lines[3], &sample));
  const tools::JsonValue* rate = sample.Find("rates")->Find("test.ops");
  ASSERT_NE(rate, nullptr);
  EXPECT_GE(rate->NumberOr(-1), 0.0);
#endif
}

// ---------------------------------------------------------------------
// MonitorStream torn-tail handling

TEST(MonitorStreamTest, TornTailBufferedUntilNewlineArrives) {
  std::string path = ::testing::TempDir() + "/rexp_stream_torn.jsonl";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("{\"type\":\"sample\",\"seq\":0}\n", f);
  // A writer caught mid-append: no trailing newline.
  std::fputs("{\"type\":\"sample\",\"se", f);
  std::fflush(f);

  tools::MonitorStream stream(path);
  std::vector<std::string> lines;
  EXPECT_EQ(stream.Poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 1u);
  tools::JsonValue v;
  EXPECT_TRUE(tools::ParseJson(lines[0], &v));

  // Polling again re-reads nothing and must NOT emit the torn tail.
  EXPECT_EQ(stream.Poll(&lines), 0u);

  // The writer finishes the line; the follower now yields it whole.
  std::fputs("q\":1}\n", f);
  std::fflush(f);
  EXPECT_EQ(stream.Poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(tools::ParseJson(lines[1], &v));
  EXPECT_EQ(v.Find("seq")->NumberOr(-1), 1.0);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(MonitorStreamTest, LinesLongerThanReadBufferStayIntact) {
  // A sample line far past the 4 KiB fgets chunk must be reassembled
  // across reads, never split or truncated.
  std::string path = ::testing::TempDir() + "/rexp_stream_long.jsonl";
  std::string big = "{\"type\":\"sample\",\"blob\":\"";
  big.append(20000, 'x');
  big += "\"}";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs(big.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);

  tools::MonitorStream stream(path);
  std::vector<std::string> lines;
  EXPECT_EQ(stream.Poll(&lines), 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], big);
  tools::JsonValue v;
  ASSERT_TRUE(tools::ParseJson(lines[0], &v));
  EXPECT_EQ(v.Find("blob")->StringOr("").size(), 20000u);
  std::remove(path.c_str());
}

TEST(MonitorStreamTest, InvalidUnicodeEscapeRejectedNotNulInjected) {
  // Regression: the \uXXXX handler used strtol with no end pointer, so
  // "\uZZZZ" silently parsed as 0 and injected a NUL byte into the
  // decoded string. Garbage escapes must fail the parse outright.
  tools::JsonValue v;
  EXPECT_FALSE(tools::ParseJson("{\"k\":\"\\uZZZZ\"}", &v));
  EXPECT_FALSE(tools::ParseJson("{\"k\":\"\\u00g1\"}", &v));
  // Truncated escape at end of string must not read past the buffer.
  EXPECT_FALSE(tools::ParseJson("{\"k\":\"\\u00", &v));

  // Valid escapes still decode (Latin-1 range maps to a single byte).
  ASSERT_TRUE(tools::ParseJson("{\"k\":\"a\\u0041b\"}", &v));
  EXPECT_EQ(v.Find("k")->StringOr(""), "aAb");
  ASSERT_TRUE(tools::ParseJson("{\"k\":\"\\u00e9\"}", &v));
  EXPECT_EQ(v.Find("k")->StringOr("").size(), 1u);
  EXPECT_EQ(static_cast<unsigned char>(v.Find("k")->StringOr("")[0]), 0xe9);
}

TEST(MonitorTest, BackgroundThreadSamplesAtInterval) {
  uint64_t ops = 0;
  obs::MetricsRegistry registry;
  registry.AddCounter("test.ops", &ops);
  obs::Monitor::Options opt;
  opt.interval_s = 0.01;
  opt.dir = ::testing::TempDir();
  opt.name = "thread";
  obs::Monitor monitor(&registry, opt);
  ASSERT_TRUE(monitor.Start().ok());
  EXPECT_FALSE(monitor.Start().ok());  // Double-start refused.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  monitor.Stop();
  monitor.Stop();  // Idempotent.
  EXPECT_GE(monitor.samples(), 3u);
  // Every line of the stream parses.
  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  EXPECT_GE(lines.size(), monitor.samples());
  for (const std::string& line : lines) {
    tools::JsonValue v;
    EXPECT_TRUE(tools::ParseJson(line, &v)) << line;
  }
  std::remove(monitor.path().c_str());
}

// ---------------------------------------------------------------------
// Tree bindings, heatmap, and per-level read counters

TEST(TreeIntrospectionTest, DestroyBoundTreeThenSnapshotIsSafe) {
  obs::MetricsRegistry registry;
  MemoryPageFile file(4096);
  Rng rng(7);
  {
    auto tree = std::make_unique<Tree<2>>(TreeConfig::Rexp(), &file);
    tree->RegisterMetrics(&registry, "tree.");
    for (ObjectId oid = 0; oid < 100; ++oid) {
      tree->Insert(oid, RandomPoint<2>(&rng, 0.0), 0.0);
    }
    EXPECT_FALSE(registry.Snapshot().empty());
    double height = 0;
    EXPECT_TRUE(registry.Lookup("tree.tree.height", &height));
    EXPECT_GE(height, 0.0);
    tree.reset();  // The regression: bindings must die with the tree.
  }
  EXPECT_TRUE(registry.Snapshot().empty());
  EXPECT_TRUE(registry.SnapshotHistograms().empty());
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\":{}"), std::string::npos) << json;
}

TEST(TreeIntrospectionTest, ReRegisteringMovesTheBindings) {
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.RegisterMetrics(&first, "tree.");
  EXPECT_FALSE(first.Snapshot().empty());
  // A tree holds one live registration: rebinding unregisters the old.
  tree.RegisterMetrics(&second, "tree.");
  EXPECT_TRUE(first.Snapshot().empty());
  EXPECT_FALSE(second.Snapshot().empty());
}

TEST(TreeIntrospectionTest, LevelReadCountersSplitByDepth) {
  obs::MetricsRegistry registry;
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.RegisterMetrics(&registry, "tree.");
  Rng rng(11);
  for (ObjectId oid = 0; oid < 2000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0), 0.0);
  }
  double height = 0;
  ASSERT_TRUE(registry.Lookup("tree.tree.height", &height));
  ASSERT_GE(height, 2.0) << "workload too small to split levels";
  tree.ResetOpStats();
  std::vector<ObjectId> hits;
  for (int i = 0; i < 50; ++i) {
    hits.clear();
    tree.Search(RandomQuery<2>(&rng, 0.0), &hits);
  }
  // Both the leaf level (0) and an internal level saw reads, and the
  // registry exposes them per level.
  double leaf_reads = 0, internal_reads = 0;
  ASSERT_TRUE(registry.Lookup("tree.ops.level_reads.0", &leaf_reads));
  ASSERT_TRUE(registry.Lookup("tree.ops.level_reads.1", &internal_reads));
  EXPECT_GT(leaf_reads, 0.0);
  EXPECT_GT(internal_reads, 0.0);
  // Searches fan out: leaves are read at least as often as their parents.
  EXPECT_GE(leaf_reads, internal_reads);
}

// NearestNeighbors feeds ops.nn_latency_us and hands the same measured
// latency to the flight recorder; ResetOpStats clears the histogram with
// the others.
TEST(TreeIntrospectionTest, NearestNeighborsRecordLatency) {
#ifndef REXP_NO_TELEMETRY
  obs::MetricsRegistry registry;
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.RegisterMetrics(&registry, "tree.");
  Rng rng(19);
  for (ObjectId oid = 0; oid < 2000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0), 0.0);
  }
  auto nn_histogram = [&registry]() {
    for (const obs::HistogramSnapshot& h : registry.SnapshotHistograms()) {
      if (h.name == "tree.ops.nn_latency_us") return h;
    }
    ADD_FAILURE() << "tree.ops.nn_latency_us is not registered";
    return obs::HistogramSnapshot{};
  };
  EXPECT_EQ(nn_histogram().count, 0u);
  std::vector<ObjectId> nn;
  for (int i = 0; i < 20; ++i) {
    tree.NearestNeighbors({rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 0.0,
                          10, &nn);
  }
  const obs::HistogramSnapshot after = nn_histogram();
  EXPECT_EQ(after.count, 20u);
  EXPECT_GT(after.sum, 0.0);

  const std::string path = ::testing::TempDir() + "/rexp_flight_nn_test.json";
  ASSERT_TRUE(obs::GlobalFlightRecorder().DumpToFile(path, "nn").ok());
  tools::JsonValue dump;
  ASSERT_TRUE(tools::ParseJson(ReadAll(path), &dump));
  std::remove(path.c_str());
  int nn_events = 0;
  double max_latency = 0;
  for (const tools::JsonValue& e : dump.Find("events")->array) {
    if (e.Find("op")->string != "nn") continue;
    ++nn_events;
    max_latency = std::max(max_latency, e.Find("latency_us")->NumberOr(0));
  }
  EXPECT_EQ(nn_events, 20);
  EXPECT_GT(max_latency, 0.0);

  tree.ResetOpStats();
  EXPECT_EQ(nn_histogram().count, 0u);
#endif
}

TEST(TreeIntrospectionTest, HeatmapRanksHotPages) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  Rng rng(13);
  for (ObjectId oid = 0; oid < 2000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0), 0.0);
  }
  std::vector<ObjectId> hits;
  for (int i = 0; i < 20; ++i) {
    hits.clear();
    tree.Search(RandomQuery<2>(&rng, 0.0), &hits);
  }
  std::vector<BufferManager::FrameHeat> heat = tree.buffer().Heatmap(5);
  ASSERT_FALSE(heat.empty());
  EXPECT_LE(heat.size(), 5u);
  for (size_t i = 1; i < heat.size(); ++i) {
    EXPECT_GE(heat[i - 1].accesses, heat[i].accesses);
  }
  // The root is read by every descent; the hottest frame reflects that.
  EXPECT_GT(heat[0].accesses, 0u);

  tools::JsonValue parsed;
  ASSERT_TRUE(tools::ParseJson(tree.buffer().HeatmapJson(5), &parsed));
  ASSERT_EQ(parsed.array.size(), heat.size());
  EXPECT_EQ(parsed.array[0].Find("page")->NumberOr(-1),
            static_cast<double>(heat[0].id));
  EXPECT_GE(parsed.array[0].Find("accesses")->NumberOr(-1), 0.0);
}

TEST(TreeIntrospectionTest, MonitorOverLiveTreeStreamsHeatmap) {
  obs::MetricsRegistry registry;
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.RegisterMetrics(&registry, "tree.");
  obs::Monitor::Options opt;
  opt.dir = ::testing::TempDir();
  opt.name = "tree";
  obs::Monitor monitor(&registry, opt);
  monitor.AddJsonProvider("heatmap",
                          [&tree] { return tree.buffer().HeatmapJson(4); });
  ASSERT_TRUE(monitor.OpenStream().ok());
  Rng rng(17);
  for (ObjectId oid = 0; oid < 500; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0), 0.0);
  }
  monitor.SampleNow();
  monitor.Stop();
  std::vector<std::string> lines = SplitLines(ReadAll(monitor.path()));
  std::remove(monitor.path().c_str());
  ASSERT_GE(lines.size(), 3u);
  tools::JsonValue sample;
  ASSERT_TRUE(tools::ParseJson(lines.back(), &sample));
  EXPECT_EQ(
      sample.Find("counters")->Find("tree.ops.inserts")->NumberOr(0),
      500.0);
  const tools::JsonValue* heatmap = sample.Find("heatmap");
  ASSERT_NE(heatmap, nullptr);
  ASSERT_FALSE(heatmap->array.empty());
  EXPECT_GE(heatmap->array[0].Find("accesses")->NumberOr(-1), 0.0);
}

// Every Tree mutation closes the same way: one top-level span named after
// the operation with a fixed attribute set and the operation's exact I/O
// delta, one flight record of the matching kind, and a horizon_retune
// event for every UI retune it caused. One call per path: Insert, a
// Delete hit and miss, the three Update tiers, and a GroupUpdate batch
// large enough to retune the horizon inside its in-place pass.
TEST(TreeIntrospectionTest, MutationSpansAndFlightRecordsMatchEachOp) {
#ifndef REXP_NO_TELEMETRY
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 1024;
  // Conservative bounds with recorded expiry: a record on its old
  // trajectory stays covered, and outliving the parent's recorded expiry
  // is exactly what sends an update to tier 2.
  config.tpbr_kind = TpbrKind::kConservative;
  config.store_tpbr_expiration = true;
  MemoryPageFile file(config.page_size);
  Tree<2> tree(config, &file);
  auto record = [](ObjectId oid, double shift, Time t_exp) {
    const Vec<2> pos = {(oid % 25) * 40.0 + shift, (oid / 25) * 40.0};
    const Vec<2> vel = {(oid % 7) * 0.25 - 0.75, (oid % 5) * 0.25 - 0.5};
    return MakeMovingPoint<2>(pos, vel, 0.0, t_exp);
  };
  const ObjectId n = 500;
  Time now = 0;
  for (ObjectId oid = 0; oid < n; ++oid) {
    now += 0.01;
    tree.Insert(oid, record(oid, 0, 100), now);
  }
  ASSERT_GE(tree.height(), 2) << "every leaf must have a parent bound";

  const std::string path =
      ::testing::TempDir() + "/rexp_mutation_spans_test.jsonl";
  std::unique_ptr<obs::Tracer> tracer =
      std::move(obs::Tracer::OpenFile(path).value());
  tree.set_tracer(tracer.get());
  const uint64_t flights_before = obs::GlobalFlightRecorder().recorded();

  struct Expected {
    const char* op;
    std::vector<std::string> end_keys;
    uint64_t subject;
    bool ok;
    uint64_t io;
    uint64_t retunes;
  };
  std::vector<Expected> expected;
  const TreeOpStats& ops = tree.op_stats();
  auto run = [&](const char* op, std::vector<std::string> end_keys,
                 uint64_t subject, auto&& body) {
    const uint64_t io_before = tree.TotalIo();
    const uint64_t retunes_before = ops.horizon_retunes.load();
    const bool ok = body();
    expected.push_back(Expected{op, std::move(end_keys), subject, ok,
                                tree.TotalIo() - io_before,
                                ops.horizon_retunes.load() - retunes_before});
  };
  auto tier_counts = [&ops] {
    return std::vector<uint64_t>{ops.update_fast.load(),
                                 ops.update_fast_propagations.load(),
                                 ops.update_fallback.load()};
  };
  auto tier_delta = [&](const std::vector<uint64_t>& before) {
    std::vector<uint64_t> after = tier_counts();
    for (size_t i = 0; i < after.size(); ++i) after[i] -= before[i];
    return after;
  };

  now += 1;
  run("insert", {"io"}, n, [&] {
    tree.Insert(n, record(n, 0, 100), now);
    return true;
  });
  run("delete", {"found", "io"}, n, [&] {
    return tree.Delete(n, record(n, 0, 100), now);
  });
  run("delete", {"found", "io"}, n, [&] {
    return tree.Delete(n, record(n, 0, 100), now);
  });
  EXPECT_TRUE(expected[1].ok);
  EXPECT_FALSE(expected[2].ok);

  // Tier 1: same trajectory, shorter life — one in-place leaf write.
  std::vector<uint64_t> before = tier_counts();
  run("update", {"found", "fast", "io"}, 1, [&] {
    return tree.Update(1, record(1, 0, 100), record(1, 0, 90), now);
  });
  EXPECT_EQ(tier_delta(before), (std::vector<uint64_t>{1, 0, 0}));
  // Tier 2: same trajectory outliving the parent's recorded expiry.
  before = tier_counts();
  run("update", {"found", "fast", "io"}, 2, [&] {
    return tree.Update(2, record(2, 0, 100), record(2, 0, 1000), now);
  });
  EXPECT_EQ(tier_delta(before), (std::vector<uint64_t>{1, 1, 0}));
  // Fallback: moved far outside every bound.
  before = tier_counts();
  run("update", {"found", "fast", "io"}, 3, [&] {
    return tree.Update(3, record(3, 0, 100), record(3, 5000, 100), now);
  });
  EXPECT_EQ(tier_delta(before), (std::vector<uint64_t>{0, 0, 1}));

  // A tier-1 batch longer than one horizon batch (the leaf capacity), at
  // a later time, so its in-place pass retunes the UI estimate.
  now += 1;
  std::vector<Tree<2>::UpdateRequest> batch;
  for (ObjectId oid = 100; oid < n; ++oid) {
    batch.push_back({oid, record(oid, 0, 100), record(oid, 0, 95)});
  }
  ASSERT_GE(batch.size(), static_cast<size_t>(tree.codec().leaf_capacity()));
  before = tier_counts();
  run("group_update", {"io"}, batch.size(), [&] {
    const std::vector<bool> found = tree.GroupUpdate(batch, now);
    return std::count(found.begin(), found.end(), true) ==
           static_cast<std::ptrdiff_t>(batch.size());
  });
  EXPECT_TRUE(expected.back().ok);
  EXPECT_EQ(tier_delta(before),
            (std::vector<uint64_t>{batch.size(), 0, 0}));
  EXPECT_GE(expected.back().retunes, 1u);

  tree.set_tracer(nullptr);
  tracer.reset();
  const std::vector<std::string> lines = SplitLines(ReadAll(path));
  std::remove(path.c_str());

  // Top-level spans in order, with their attribute keys, I/O, and the
  // horizon_retune events emitted while each was open.
  struct Span {
    std::string op;
    std::vector<std::string> begin_keys;
    std::vector<std::string> end_keys;
    double io = -1;
    uint64_t retunes = 0;
  };
  std::vector<Span> spans;
  double open_span = 0;
  auto keys_of = [](const tools::JsonValue& event) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : event.object) {
      if (key == "seq" || key == "type" || key == "ph" || key == "span" ||
          key == "parent" || key == "dur_us") {
        continue;
      }
      keys.push_back(key);
    }
    return keys;
  };
  for (const std::string& line : lines) {
    tools::JsonValue event;
    ASSERT_TRUE(tools::ParseJson(line, &event)) << line;
    const std::string type = event.Find("type")->StringOr("");
    const tools::JsonValue* ph = event.Find("ph");
    const double span = event.Find("span") ? event.Find("span")->number : 0;
    if (ph != nullptr && event.Find("parent") == nullptr && open_span == 0) {
      ASSERT_EQ(ph->string, "B") << line;
      spans.push_back(Span{type, keys_of(event), {}, -1, 0});
      open_span = span;
    } else if (ph != nullptr && span == open_span) {
      ASSERT_EQ(ph->string, "E") << line;
      spans.back().end_keys = keys_of(event);
      spans.back().io = event.Find("io")->NumberOr(-1);
      open_span = 0;
    } else if (type == "horizon_retune") {
      ASSERT_NE(open_span, 0) << "retune outside any operation span";
      ++spans.back().retunes;
    }
  }
  ASSERT_EQ(spans.size(), expected.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Expected& want = expected[i];
    SCOPED_TRACE(std::string("operation ") + std::to_string(i) + " (" +
                 want.op + ")");
    EXPECT_EQ(spans[i].op, want.op);
    const std::vector<std::string> begin_keys =
        spans[i].op == "group_update"
            ? std::vector<std::string>{"batch", "now"}
            : std::vector<std::string>{"oid", "now"};
    EXPECT_EQ(spans[i].begin_keys, begin_keys);
    EXPECT_EQ(spans[i].end_keys, want.end_keys);
    EXPECT_EQ(spans[i].io, static_cast<double>(want.io));
    EXPECT_EQ(spans[i].retunes, want.retunes);
  }

  const std::string dump_path =
      ::testing::TempDir() + "/rexp_mutation_flight_test.json";
  ASSERT_TRUE(obs::GlobalFlightRecorder().DumpToFile(dump_path, "ops").ok());
  tools::JsonValue dump;
  ASSERT_TRUE(tools::ParseJson(ReadAll(dump_path), &dump));
  std::remove(dump_path.c_str());
  std::vector<const tools::JsonValue*> records;
  for (const tools::JsonValue& e : dump.Find("events")->array) {
    if (e.Find("seq")->number >= static_cast<double>(flights_before)) {
      records.push_back(&e);
    }
  }
  ASSERT_EQ(records.size(), expected.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const Expected& want = expected[i];
    SCOPED_TRACE(std::string("flight record ") + std::to_string(i));
    EXPECT_EQ(records[i]->Find("op")->string, want.op);
    EXPECT_EQ(records[i]->Find("oid")->number,
              static_cast<double>(want.subject));
    const StatusCode status =
        want.ok ? StatusCode::kOk : StatusCode::kNotFound;
    EXPECT_EQ(records[i]->Find("status")->number,
              static_cast<double>(static_cast<int>(status)));
    EXPECT_EQ(records[i]->Find("io")->number, static_cast<double>(want.io));
  }
#endif
}

// ---------------------------------------------------------------------
// Telemetry lists

// Checks each counter in `list` against its binding `prefix` + name: the
// binding exists and reads the member's current value, which must be 0
// when `zero` is set.
template <typename Stats, size_t N>
void ExpectCountersBound(
    const obs::MetricsRegistry& registry, const std::string& prefix,
    const Stats& stats,
    const obs::NamedField<Stats, std::atomic<uint64_t>> (&list)[N],
    bool zero) {
  for (const auto& [name, counter] : list) {
    const uint64_t value = (stats.*counter).load();
    double bound = -1;
    ASSERT_TRUE(registry.Lookup(prefix + name, &bound)) << prefix << name;
    EXPECT_EQ(bound, static_cast<double>(value)) << prefix << name;
    if (zero) {
      EXPECT_EQ(value, 0u) << prefix << name;
    }
  }
}

// The same for histograms, compared by sample count.
template <typename Stats, size_t N>
void ExpectHistogramsBound(
    const obs::MetricsRegistry& registry, const std::string& prefix,
    const Stats& stats, const obs::NamedField<Stats, obs::Histogram> (&list)[N],
    bool zero) {
  const std::vector<obs::HistogramSnapshot> snaps =
      registry.SnapshotHistograms();
  for (const auto& [name, histogram] : list) {
    const uint64_t count = (stats.*histogram).count();
    auto it = std::find_if(snaps.begin(), snaps.end(),
                           [&](const obs::HistogramSnapshot& h) {
                             return h.name == prefix + name;
                           });
    ASSERT_NE(it, snaps.end()) << prefix << name;
    EXPECT_EQ(it->count, count) << prefix << name;
    if (zero) {
      EXPECT_EQ(count, 0u) << prefix << name;
    }
  }
}

TEST(TelemetryListsTest, EveryListedFieldIsRegisteredAndReset) {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;  // Small pool: misses, evictions, write-backs.
  MemoryPageFile file(config.page_size);
  Tree<2> tree(config, &file);
  obs::MetricsRegistry registry;
  tree.RegisterMetrics(&registry, "tree.");

  Rng rng(5);
  std::vector<Tpbr<2>> records;
  for (ObjectId oid = 0; oid < 600; ++oid) {
    records.push_back(RandomPoint<2>(&rng, 0.0));
    tree.Insert(oid, records.back(), 0.0);
  }
  for (ObjectId oid = 0; oid < 100; ++oid) {
    (void)tree.Delete(oid, records[oid], 1.0);
  }
  std::vector<ObjectId> hits;
  for (int i = 0; i < 20; ++i) tree.Search(RandomQuery<2>(&rng, 1.0), &hits);

  const IoStats& io = tree.io_stats();
  const DeviceStats& dev = file.device_stats();
  const TreeOpStats& ops = tree.op_stats();
  ASSERT_GT(io.reads.load(), 0u);
  ASSERT_GT(dev.frame_writes.load(), 0u);
  ASSERT_GT(ops.inserts.load(), 0u);
  for (bool zero : {false, true}) {
    if (zero) {
      tree.ResetIoStats();
      file.ResetDeviceStats();
      tree.ResetOpStats();
    }
    ExpectCountersBound(registry, "tree.buffer.", io, IoStats::kCounters,
                        zero);
    ExpectCountersBound(registry, "tree.device.", dev,
                        DeviceStats::kCounters, zero);
    ExpectHistogramsBound(registry, "tree.device.", dev,
                          DeviceStats::kHistograms, zero);
    ExpectCountersBound(registry, "tree.ops.", ops, TreeOpStats::kCounters,
                        zero);
    ExpectHistogramsBound(registry, "tree.ops.", ops,
                          TreeOpStats::kHistograms, zero);
  }
  for (int l = 0; l < TreeOpStats::kMaxTrackedLevels; ++l) {
    double reads = -1;
    ASSERT_TRUE(registry.Lookup("tree.ops.level_reads." + std::to_string(l),
                                &reads));
    EXPECT_EQ(reads, 0.0) << "level " << l;
  }
}

// The scheduled-deletion queue reports its cost under the same storage
// names as the tree it sits beside: both register through the buffer
// pool and the page file, so no hand-picked subset can drift.
TEST(TelemetryListsTest, QueueCarriesEveryStorageNameOfItsTree) {
  MemoryPageFile tree_file(4096);
  MemoryPageFile queue_file(4096);
  ScheduledIndex<2> index(TreeConfig::Rexp(), &tree_file, &queue_file);
  obs::MetricsRegistry registry;
  index.RegisterMetrics(&registry, "");

  std::vector<std::string> names;
  for (const obs::MetricSample& s : registry.Snapshot()) {
    names.push_back(s.name);
  }
  for (const obs::HistogramSnapshot& h : registry.SnapshotHistograms()) {
    names.push_back(h.name);
  }
  size_t storage_names = 0;
  for (const std::string& name : names) {
    if (name.rfind("tree.buffer.", 0) != 0 &&
        name.rfind("tree.device.", 0) != 0) {
      continue;
    }
    ++storage_names;
    const std::string queue_name = "queue." + name.substr(5);
    EXPECT_NE(std::find(names.begin(), names.end(), queue_name), names.end())
        << queue_name;
  }
  // Every IoStats and DeviceStats entry plus the three pool gauges.
  EXPECT_EQ(storage_names, std::size(IoStats::kCounters) + 3 +
                               std::size(DeviceStats::kCounters) +
                               std::size(DeviceStats::kHistograms));
}

}  // namespace
}  // namespace rexp
