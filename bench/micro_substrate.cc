// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks for the substrates: convex hulls / bridges, the
// frame checksum, and the buffer manager's hit and miss paths.

#include <benchmark/benchmark.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "hull/convex_hull.h"
#include "storage/buffer_manager.h"
#include "storage/page_file.h"

namespace rexp {
namespace {

void BM_HullAndBridge(benchmark::State& state) {
  Rng rng(1);
  int n = static_cast<int>(state.range(0));
  std::vector<hull::Point2> points(n);
  for (auto& p : points) {
    p = {rng.Uniform(0, 100), rng.Uniform(-500, 500)};
  }
  std::vector<hull::Point2> scratch(n);
  for (auto _ : state) {
    std::copy(points.begin(), points.end(), scratch.begin());
    int len = hull::UpperHullInPlace(scratch.data(), n);
    benchmark::DoNotOptimize(hull::UpperBridge(scratch.data(), len, 45.0));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HullAndBridge)->Arg(4)->Arg(32)->Arg(340);

// CRC-32C of one 4 KiB page frame (page plus its 16-byte header), as
// every device read and write computes it. Arg 0 is the portable table
// path, arg 1 the SSE4.2 path.
void BM_Crc32cFrame(benchmark::State& state) {
  const bool hw = state.range(0) == 1;
  if (hw && !internal::HaveHwCrc32c()) {
    state.SkipWithError("CPU lacks SSE4.2");
    return;
  }
  Rng rng(2);
  std::vector<uint8_t> frame(4096 + 16);
  for (uint8_t& b : frame) b = static_cast<uint8_t>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hw ? internal::Crc32cHw(frame.data(), frame.size(), 0)
           : internal::Crc32cTable(frame.data(), frame.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_Crc32cFrame)->ArgName("hw")->Arg(0)->Arg(1);

void BM_BufferFetchHit(benchmark::State& state) {
  MemoryPageFile file(4096);
  BufferManager buffer(&file, 50);
  PageId id = file.Allocate().value();
  buffer.FetchOrDie(id);
  for (auto _ : state) {
    // Guard acquire + release (latch, pin, LRU touch) per iteration.
    benchmark::DoNotOptimize(buffer.FetchOrDie(id).page().Read<uint32_t>(0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferFetchHit);

void BM_BufferFetchMissEvict(benchmark::State& state) {
  MemoryPageFile file(4096);
  BufferManager buffer(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(file.Allocate().value());
  size_t i = 0;
  for (auto _ : state) {
    // Sequential sweep over 64 pages with 8 frames: every fetch misses.
    benchmark::DoNotOptimize(
        buffer.FetchOrDie(ids[i % ids.size()]).page().Read<uint32_t>(0));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferFetchMissEvict);

}  // namespace
}  // namespace rexp

BENCHMARK_MAIN();
