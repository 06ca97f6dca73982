// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks for whole index operations: insertion, search, and
// update throughput of the R^exp-tree and the TPR-tree baseline, and the
// B-tree event queue underneath the scheduled-deletion variants.
//
// This binary also audits heap traffic: the global allocator is wrapped
// with a per-thread counter, every tree benchmark reports allocs_per_op,
// and the memory-resident Search and NN benchmarks of Tree,
// PartitionedIndex and TieredIndex abort outright if the steady-state
// query path allocates at all (the per-thread scratch guarantee).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "btree/btree.h"
#include "common/random.h"
#include "livetier/tiered_index.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/tree.h"

namespace {
thread_local uint64_t g_thread_allocs = 0;
}  // namespace

// noinline keeps the compiler from pairing an inlined malloc here with a
// default-delete call site elsewhere and warning about the mismatch.
#if defined(__GNUC__)
#define REXP_ALLOC_NOINLINE __attribute__((noinline))
#else
#define REXP_ALLOC_NOINLINE
#endif

REXP_ALLOC_NOINLINE void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

REXP_ALLOC_NOINLINE void* operator new[](std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

REXP_ALLOC_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
REXP_ALLOC_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
REXP_ALLOC_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
REXP_ALLOC_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rexp {
namespace {

using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

void BM_TreeInsert(benchmark::State& state, TreeConfig config) {
  Rng rng(1);
  MemoryPageFile file(config.page_size);
  Tree<2> tree(config, &file);
  ObjectId oid = 0;
  Time now = 0;
  uint64_t allocs_before = g_thread_allocs;
  for (auto _ : state) {
    now += 0.01;
    tree.Insert(oid++, RandomPoint<2>(&rng, now, 120.0), now);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_thread_allocs - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK_CAPTURE(BM_TreeInsert, rexp, TreeConfig::Rexp());
BENCHMARK_CAPTURE(BM_TreeInsert, tpr, TreeConfig::Tpr());

// Telemetry overhead on the insert path: identical workload with the
// runtime telemetry flag on (histograms + latency timing recorded) vs off
// (counters only). The acceptance bar is <= 2% for the enabled case; a
// REXP_NO_TELEMETRY build compiles the recording out entirely, making the
// "on" variant equal to "off".
void BM_TreeInsertTelemetry(benchmark::State& state, bool enabled) {
  obs::telemetry::SetEnabled(enabled);
  Rng rng(1);
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  ObjectId oid = 0;
  Time now = 0;
  for (auto _ : state) {
    now += 0.01;
    tree.Insert(oid++, RandomPoint<2>(&rng, now, 120.0), now);
  }
  state.SetItemsProcessed(state.iterations());
  obs::telemetry::SetEnabled(true);
}
BENCHMARK_CAPTURE(BM_TreeInsertTelemetry, on, true);
BENCHMARK_CAPTURE(BM_TreeInsertTelemetry, off, false);

// Full live-introspection overhead on the insert path: the continuous
// profiler sampling the registry at 100 ms plus a span tracer at the
// profiling sample rate (every 128th operation traced in full), versus
// the same workload with no monitor and no tracer. The acceptance bar
// for the "on" configuration is <= 2% over "off" — introspection must be
// cheap enough to leave on in production.
void BM_TreeInsertIntrospection(benchmark::State& state, bool enabled) {
  Rng rng(1);
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);

  obs::MetricsRegistry registry;
  std::unique_ptr<obs::Monitor> monitor;
  std::unique_ptr<obs::Tracer> tracer;
  std::string trace_path;
  if (enabled) {
    tree.RegisterMetrics(&registry, "tree.");
    obs::Monitor::Options opt;
    opt.interval_s = 0.1;
    const char* tmp = std::getenv("TMPDIR");
    opt.dir = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    opt.name = "bench_introspection";
    monitor = std::make_unique<obs::Monitor>(&registry, opt);
    if (!monitor->Start().ok()) state.SkipWithError("monitor failed");
    trace_path = opt.dir + "/bench_introspection_trace.jsonl";
    auto opened = obs::Tracer::OpenFile(trace_path);
    if (!opened.ok()) state.SkipWithError("tracer failed");
    tracer = std::move(opened).value();
    tracer->set_span_sample(128);
    tree.set_tracer(tracer.get());
  }

  ObjectId oid = 0;
  Time now = 0;
  for (auto _ : state) {
    now += 0.01;
    tree.Insert(oid++, RandomPoint<2>(&rng, now, 120.0), now);
  }
  state.SetItemsProcessed(state.iterations());
  if (enabled) {
    tree.set_tracer(nullptr);
    monitor->Stop();
    std::remove(monitor->path().c_str());
    tracer.reset();
    std::remove(trace_path.c_str());
  }
}
BENCHMARK_CAPTURE(BM_TreeInsertIntrospection, on, true);
BENCHMARK_CAPTURE(BM_TreeInsertIntrospection, off, false);

void BM_TreeSearch(benchmark::State& state) {
  Rng rng(2);
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  for (ObjectId oid = 0; oid < 20000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 1e5), 0.0);
  }
  std::vector<ObjectId> hits;
  hits.reserve(20000);
  uint64_t allocs_before = g_thread_allocs;
  for (auto _ : state) {
    hits.clear();
    tree.Search(RandomQuery<2>(&rng, 0.0), &hits);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations());
  // Paper geometry (50-frame pool, index larger than the pool): the only
  // remaining allocations are the buffer pool's frame-table updates on
  // page misses.
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_thread_allocs - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TreeSearch);

// Builds an `Index` over 20k objects whose pages all stay resident in
// the buffer pool (PartitionedIndex: K = 4 classes, one pool each), then
// runs `query(index, rng)`: the hot path (routing, descent, node views,
// result merging, telemetry) must not allocate at all in steady state.
// This is a hard regression gate, not a measurement — the process aborts
// if the guarantee breaks.
template <typename Index, typename QueryFn>
void ResidentQueryGate(benchmark::State& state, const char* what,
                       QueryFn query) {
  constexpr bool kPartitioned = std::is_same_v<Index, PartitionedIndex<2>>;
  Rng rng(2);
  TreeConfig config = TreeConfig::Rexp();
  config.buffer_frames = 1024;  // > pages used by the 20k-object index.
  std::vector<std::unique_ptr<MemoryPageFile>> files;
  std::vector<PageFile*> raw;
  for (int i = 0; i < (kPartitioned ? 4 : 1); ++i) {
    files.push_back(std::make_unique<MemoryPageFile>(config.page_size));
    raw.push_back(files.back().get());
  }
  std::unique_ptr<Index> index;
  if constexpr (kPartitioned) {
    PartitionedOptions options;
    options.partitions = static_cast<int>(raw.size());
    index = std::make_unique<Index>(config, raw, options);
  } else {
    index = std::make_unique<Index>(config, raw[0]);
  }
  for (ObjectId oid = 0; oid < 20000; ++oid) {
    index->Insert(oid, RandomPoint<2>(&rng, 0.0, 1e5), 0.0);
  }
  // Warm the per-thread scratch and fault every page into the pool.
  for (int i = 0; i < 200; ++i) query(*index, rng);
  uint64_t check_start = g_thread_allocs;
  for (int i = 0; i < 200; ++i) query(*index, rng);
  if (g_thread_allocs != check_start) {
    std::fprintf(stderr,
                 "FATAL: steady-state %s allocated %llu time(s) over "
                 "200 resident queries; the hot path must be "
                 "allocation-free (reuse per-thread scratch)\n",
                 what,
                 static_cast<unsigned long long>(g_thread_allocs -
                                                 check_start));
    std::abort();
  }
  for (auto _ : state) query(*index, rng);
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = 0;
}

// The resident Search and k = 10 NN gates over each front-end.
template <typename Index>
void SearchResident(benchmark::State& state, const char* what) {
  std::vector<ObjectId> hits;
  hits.reserve(20000);
  ResidentQueryGate<Index>(state, what, [&hits](Index& index, Rng& rng) {
    hits.clear();
    index.Search(RandomQuery<2>(&rng, 0.0), &hits);
    benchmark::DoNotOptimize(hits.data());
  });
}
template <typename Index, typename Result>
void NnResident(benchmark::State& state, const char* what) {
  std::vector<Result> nn;
  nn.reserve(10);
  ResidentQueryGate<Index>(state, what, [&nn](Index& index, Rng& rng) {
    const Vec<2> q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    index.NearestNeighbors(q, 0.0, 10, &nn);
    benchmark::DoNotOptimize(nn.data());
  });
}

void BM_TreeSearchResident(benchmark::State& state) {
  SearchResident<Tree<2>>(state, "Tree::Search");
}
BENCHMARK(BM_TreeSearchResident);

void BM_TreeNnResident(benchmark::State& state) {
  NnResident<Tree<2>, Tree<2>::NnResult>(state, "Tree::NearestNeighbors");
}
BENCHMARK(BM_TreeNnResident);

void BM_TreeNnIdsResident(benchmark::State& state) {
  NnResident<Tree<2>, ObjectId>(state, "Tree::NearestNeighbors (oids)");
}
BENCHMARK(BM_TreeNnIdsResident);

void BM_PartitionedSearchResident(benchmark::State& state) {
  SearchResident<PartitionedIndex<2>>(state, "PartitionedIndex::Search");
}
BENCHMARK(BM_PartitionedSearchResident);

void BM_PartitionedNnResident(benchmark::State& state) {
  NnResident<PartitionedIndex<2>, ObjectId>(
      state, "PartitionedIndex::NearestNeighbors");
}
BENCHMARK(BM_PartitionedNnResident);

void BM_TieredSearchResident(benchmark::State& state) {
  SearchResident<TieredIndex<2>>(state, "TieredIndex::Search");
}
BENCHMARK(BM_TieredSearchResident);

void BM_TieredNnResident(benchmark::State& state) {
  NnResident<TieredIndex<2>, ObjectId>(state,
                                       "TieredIndex::NearestNeighbors");
}
BENCHMARK(BM_TieredNnResident);

void BM_TreeUpdate(benchmark::State& state) {
  Rng rng(3);
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  const int n = 20000;
  std::vector<Tpbr<2>> last(n);
  for (ObjectId oid = 0; oid < n; ++oid) {
    last[oid] = RandomPoint<2>(&rng, 0.0, 1e5);
    tree.Insert(oid, last[oid], 0.0);
  }
  Time now = 0;
  ObjectId oid = 0;
  uint64_t allocs_before = g_thread_allocs;
  for (auto _ : state) {
    now += 0.01;
    (void)tree.Delete(oid, last[oid], now);
    last[oid] = RandomPoint<2>(&rng, now, 1e5);
    tree.Insert(oid, last[oid], now);
    oid = (oid + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_thread_allocs - allocs_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TreeUpdate);

// Position re-reports through the bottom-up Update API on the paper's
// steady-state workload shape: each object reports a position on (or
// near) its predicted trajectory with a bounded heading change and the
// paper's ExpT = 120 lifetime, so the DAT pins the leaf and most updates
// never descend. Reports the fast-path rate and residual heap traffic
// alongside throughput. (bench/bench_update.cc compares the update modes
// head-to-head on identical workloads.)
void BM_TreeUpdateBottomUp(benchmark::State& state) {
  Rng rng(3);
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  const int n = 20000;
  std::vector<Tpbr<2>> last(n);
  Time now = 0;
  for (ObjectId oid = 0; oid < n; ++oid) {
    now += 0.001;
    last[oid] = RandomPoint<2>(&rng, now, 120.0);
    tree.Insert(oid, last[oid], now);
  }
  ObjectId oid = 0;
  tree.ResetOpStats();
  uint64_t allocs_before = g_thread_allocs;
  for (auto _ : state) {
    now += 0.001;
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = last[oid].LoAt(d, now) + rng.Uniform(-0.5, 0.5);
      vel[d] = std::clamp<double>(last[oid].vlo[d] + rng.Uniform(-0.2, 0.2),
                                  -3.0, 3.0);
    }
    Tpbr<2> fresh = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
    (void)tree.Update(oid, last[oid], fresh, now);
    last[oid] = fresh;
    oid = (oid + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(g_thread_allocs - allocs_before),
      benchmark::Counter::kAvgIterations);
  const TreeOpStats& ops = tree.op_stats();
  uint64_t updates = ops.updates.load();
  state.counters["fast_path_rate"] =
      updates == 0 ? 0.0
                   : static_cast<double>(ops.update_fast.load()) /
                         static_cast<double>(updates);
}
BENCHMARK(BM_TreeUpdateBottomUp);

void BM_BTreeInsertPop(benchmark::State& state) {
  MemoryPageFile file(4096);
  BTree queue(&file, 50, 16);
  Rng rng(4);
  uint8_t value[16] = {};
  uint32_t id = 0;
  // Steady state: one insert + one pop per iteration.
  for (int i = 0; i < 10000; ++i) {
    queue.Insert(BTree::Key{static_cast<float>(rng.Uniform(0, 1e6)), id++},
                 value);
  }
  for (auto _ : state) {
    queue.Insert(BTree::Key{static_cast<float>(rng.Uniform(0, 1e6)), id++},
                 value);
    BTree::Key key;
    benchmark::DoNotOptimize(queue.PopFirstUpTo(1e9f, &key, value));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_BTreeInsertPop);

}  // namespace
}  // namespace rexp

BENCHMARK_MAIN();
