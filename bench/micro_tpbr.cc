// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Micro-benchmarks for the TPBR layer: bounding-rectangle computation for
// every strategy (the per-update cost driver of the index), the query
// intersection predicate, and the objective-function integrals.

#include <array>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/float_round.h"
#include "common/random.h"
#include "tests/test_util.h"
#include "tpbr/integrals.h"
#include "tpbr/intersect.h"
#include "tpbr/tpbr_compute.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomEntries;
using ::rexp::testing::RandomQuery;

void BM_ComputeTpbr(benchmark::State& state, TpbrKind kind) {
  Rng rng(1);
  int n = static_cast<int>(state.range(0));
  auto entries = RandomEntries<2>(&rng, /*now=*/0.0, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ComputeTpbr<2>(kind, entries, 0.0, 90.0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}

BENCHMARK_CAPTURE(BM_ComputeTpbr, conservative, TpbrKind::kConservative)
    ->Arg(2)->Arg(16)->Arg(170);
BENCHMARK_CAPTURE(BM_ComputeTpbr, static_, TpbrKind::kStatic)
    ->Arg(2)->Arg(16)->Arg(170);
BENCHMARK_CAPTURE(BM_ComputeTpbr, update_minimum, TpbrKind::kUpdateMinimum)
    ->Arg(2)->Arg(16)->Arg(170);
BENCHMARK_CAPTURE(BM_ComputeTpbr, near_optimal, TpbrKind::kNearOptimal)
    ->Arg(2)->Arg(16)->Arg(170);
BENCHMARK_CAPTURE(BM_ComputeTpbr, optimal, TpbrKind::kOptimal)
    ->Arg(2)->Arg(16)->Arg(170);

// A node-sized set of canonical moving points, as a leaf holds them:
// float positions, velocities and expiries (now = 0).
std::vector<Tpbr<2>> LeafPoints(Rng* rng, int n) {
  std::vector<Tpbr<2>> points(n);
  for (Tpbr<2>& p : points) {
    for (int d = 0; d < 2; ++d) {
      p.lo[d] = p.hi[d] = ToFloatExactly(rng->Uniform(0, 1000));
      p.vlo[d] = p.vhi[d] = ToFloatExactly(rng->Uniform(-3, 3));
    }
    p.t_exp = ToFloatExactly(rng->Uniform(0, 120));
  }
  return points;
}

// 64 distinct leaves rotate: one repeated input would let branch history
// memorise its sort.
void BM_ComputeTpbrLeaf(benchmark::State& state) {
  Rng rng(5);
  int n = static_cast<int>(state.range(0));
  std::vector<std::vector<Tpbr<2>>> leaves(64);
  for (auto& leaf : leaves) leaf = LeafPoints(&rng, n);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTpbr<2>(
        TpbrKind::kNearOptimal, leaves[i++ % leaves.size()], 0.0, 90.0, &rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ComputeTpbrLeaf)
    ->Name("BM_ComputeTpbr/near_optimal_leaf")
    ->Arg(120);

// ChooseSubtree's what-if bound: a child's bound plus the record being
// inserted. An R^exp-tree stores no expiry in internal entries, so a
// child's bound never expires unless it shrinks (`ray_record`, ~99% of
// calls); `finite_pair` bounds two finite entries, the rest. 1024
// distinct pairs rotate so branch history cannot memorise their outcomes.
void BM_DecisionBound(benchmark::State& state, bool ray_child) {
  Rng rng(6);
  std::vector<std::array<Tpbr<2>, 2>> pairs(1024);
  for (auto& pair : pairs) {
    auto points = LeafPoints(&rng, 2);
    pair = {points[0], points[1]};
    if (ray_child) {
      for (int d = 0; d < 2; ++d) {
        pair[0].hi[d] = ToFloatExactly(pair[0].lo[d] + rng.Uniform(0, 60));
        pair[0].vhi[d] = ToFloatExactly(pair[0].vlo[d] + rng.Uniform(0, 2));
      }
      pair[0].t_exp = kNeverExpires;
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeTpbr<2>(
        TpbrKind::kNearOptimal, pairs[i++ % pairs.size()], 0.0, 90.0, &rng));
  }
}
BENCHMARK_CAPTURE(BM_DecisionBound, ray_record, true);
BENCHMARK_CAPTURE(BM_DecisionBound, finite_pair, false);

void BM_Intersects(benchmark::State& state) {
  Rng rng(2);
  auto entries = RandomEntries<2>(&rng, 0.0, 64);
  std::vector<Query<2>> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(RandomQuery<2>(&rng, 0.0));
  size_t i = 0;
  for (auto _ : state) {
    const auto& e = entries[i % entries.size()];
    const auto& q = queries[i % queries.size()];
    benchmark::DoNotOptimize(Intersects(e, q, e.t_exp));
    ++i;
  }
}
BENCHMARK(BM_Intersects);

void BM_AreaIntegral(benchmark::State& state) {
  Rng rng(3);
  auto entries = RandomEntries<2>(&rng, 0.0, 64);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AreaIntegral(entries[i % entries.size()], 0.0, 90.0));
    ++i;
  }
}
BENCHMARK(BM_AreaIntegral);

void BM_OverlapIntegral(benchmark::State& state) {
  Rng rng(4);
  auto entries = RandomEntries<2>(&rng, 0.0, 64);
  size_t i = 0;
  for (auto _ : state) {
    const auto& a = entries[i % entries.size()];
    const auto& b = entries[(i * 7 + 1) % entries.size()];
    benchmark::DoNotOptimize(OverlapIntegral(a, b, 0.0, 90.0));
    ++i;
  }
}
BENCHMARK(BM_OverlapIntegral);

}  // namespace
}  // namespace rexp

BENCHMARK_MAIN();
