// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the two extensions beyond the paper's core: k-nearest-neighbor
// queries over the time-parameterized index, and sort-tile-recursive bulk
// loading.

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/stats.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

TreeConfig SmallConfig() {
  TreeConfig c = TreeConfig::Rexp();
  c.page_size = 512;
  c.buffer_frames = 8;
  return c;
}

// --------------------------------------------------------------------------
// k-nearest-neighbor queries.

TEST(NearestNeighbors, HandPickedScenario) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  // Three stationary objects at distance 1, 2, 3 from the origin, plus a
  // mover that arrives near the origin at t = 10.
  tree.Insert(1, MakeMovingPoint<2>({1, 0}, {0, 0}, 0, 100), 0);
  tree.Insert(2, MakeMovingPoint<2>({0, 2}, {0, 0}, 0, 100), 0);
  tree.Insert(3, MakeMovingPoint<2>({-3, 0}, {0, 0}, 0, 100), 0);
  tree.Insert(4, MakeMovingPoint<2>({-10, 0}, {1, 0}, 0, 100), 0);

  std::vector<ObjectId> nn;
  tree.NearestNeighbors({0, 0}, /*t=*/0, 3, &nn);
  EXPECT_EQ(nn, (std::vector<ObjectId>{1, 2, 3}));

  // At t = 10 the mover sits at (0, 0): nearest of all.
  tree.NearestNeighbors({0, 0}, /*t=*/10, 2, &nn);
  EXPECT_EQ(nn, (std::vector<ObjectId>{4, 1}));

  // k larger than the population returns everyone.
  tree.NearestNeighbors({0, 0}, 0, 10, &nn);
  EXPECT_EQ(nn.size(), 4u);

  // k = 0 returns nothing.
  tree.NearestNeighbors({0, 0}, 0, 0, &nn);
  EXPECT_TRUE(nn.empty());
}

TEST(NearestNeighbors, ExpiredObjectsAreNotNeighbors) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.Insert(1, MakeMovingPoint<2>({1, 0}, {0, 0}, 0, /*t_exp=*/5), 0);
  tree.Insert(2, MakeMovingPoint<2>({50, 0}, {0, 0}, 0, 100), 0);
  std::vector<ObjectId> nn;
  tree.NearestNeighbors({0, 0}, /*t=*/3, 1, &nn);
  EXPECT_EQ(nn, (std::vector<ObjectId>{1}));
  tree.NearestNeighbors({0, 0}, /*t=*/6, 1, &nn);
  EXPECT_EQ(nn, (std::vector<ObjectId>{2}))
      << "object 1 expired at t = 5";
}

TEST(NearestNeighbors, PropertyMatchesBruteForce) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallConfig(), &file);
  ReferenceIndex<2> oracle;
  Rng rng(91);
  Time now = 0;
  for (ObjectId oid = 0; oid < 1500; ++oid) {
    now += 0.01;
    auto p = RandomPoint<2>(&rng, now, 60.0);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }
  for (int iter = 0; iter < 200; ++iter) {
    Vec<2> q{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    Time t = now + rng.Uniform(0, 30);
    int k = 1 + static_cast<int>(rng.UniformInt(10));
    std::vector<ObjectId> got, want;
    tree.NearestNeighbors(q, t, k, &got);
    oracle.NearestNeighbors(q, t, k, &want);
    ASSERT_EQ(got, want) << "iter " << iter << " k=" << k << " t=" << t;
  }
}

// The oracle's k nearest live objects at time t that `skip` rejects not.
std::vector<ObjectId> ReferenceNn(const ReferenceIndex<2>& oracle,
                                  const Vec<2>& q, Time t, int k,
                                  const std::function<bool(ObjectId)>& skip) {
  std::vector<ObjectId> all, out;
  oracle.NearestNeighbors(q, t, std::numeric_limits<int>::max(), &all);
  for (ObjectId oid : all) {
    if (static_cast<int>(out.size()) == k) break;
    if (!skip || !skip(oid)) out.push_back(oid);
  }
  return out;
}

// The search drops entries farther than the k-th best object found so
// far. Pin it against the oracle where that bound bites hardest: many
// objects on the same trajectory (ties broken by oid), expired entries,
// k from 1 to past the live count, with and without a skip predicate.
TEST(NearestNeighbors, PrunedSearchMatchesReference) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallConfig(), &file);
  ReferenceIndex<2> oracle;
  Rng rng(93);
  std::vector<std::pair<Vec<2>, Vec<2>>> tracks;
  for (int i = 0; i < 40; ++i) {
    tracks.push_back({{rng.Uniform(0, 1000), rng.Uniform(0, 1000)},
                      {rng.Uniform(-3, 3), rng.Uniform(-3, 3)}});
  }
  for (ObjectId oid = 0; oid < 1200; ++oid) {
    const auto& [pos, vel] = tracks[rng.UniformInt(tracks.size())];
    const Tpbr<2> p =
        MakeMovingPoint<2>(pos, vel, 0.0, rng.Uniform(5.0, 200.0));
    tree.Insert(oid, p, 0.0);
    oracle.Insert(oid, p);
  }
  const std::function<bool(ObjectId)> none;
  const std::function<bool(ObjectId)> odd = [](ObjectId o) { return o % 2; };
  for (Time t : {0.0, 60.0, 150.0}) {
    std::vector<ObjectId> live;
    oracle.NearestNeighbors({0, 0}, t, std::numeric_limits<int>::max(),
                            &live);
    const int n = static_cast<int>(live.size());
    ASSERT_GT(n, 10);
    for (int iter = 0; iter < 12; ++iter) {
      // Every other query sits on a shared trajectory: a run of ties at
      // distance zero.
      const auto& [pos, vel] = tracks[rng.UniformInt(tracks.size())];
      const Vec<2> q = iter % 2 == 0
                           ? Vec<2>{pos[0] + vel[0] * t, pos[1] + vel[1] * t}
                           : Vec<2>{rng.Uniform(0, 1000),
                                    rng.Uniform(0, 1000)};
      for (int k : {1, 10, n, n + 5}) {
        for (const auto* skip : {&none, &odd}) {
          std::vector<Tree<2>::NnResult> got;
          tree.NearestNeighbors(q, t, k, &got, *skip);
          std::vector<ObjectId> got_ids;
          for (const auto& r : got) got_ids.push_back(r.oid);
          ASSERT_EQ(got_ids, ReferenceNn(oracle, q, t, k, *skip))
              << "t=" << t << " iter " << iter << " k=" << k
              << (*skip ? " skipping odd oids" : "");
        }
      }
    }
  }
}

TEST(NearestNeighbors, WorksInOneAndThreeDimensions) {
  Rng rng(92);
  {
    MemoryPageFile file(4096);
    Tree<1> tree(TreeConfig::Rexp(), &file);
    ReferenceIndex<1> oracle;
    for (ObjectId oid = 0; oid < 300; ++oid) {
      auto p = RandomPoint<1>(&rng, 0.0, 60.0);
      tree.Insert(oid, p, 0.0);
      oracle.Insert(oid, p);
    }
    std::vector<ObjectId> got, want;
    tree.NearestNeighbors({500}, 10.0, 5, &got);
    oracle.NearestNeighbors({500}, 10.0, 5, &want);
    EXPECT_EQ(got, want);
  }
  {
    MemoryPageFile file(4096);
    Tree<3> tree(TreeConfig::Rexp(), &file);
    ReferenceIndex<3> oracle;
    for (ObjectId oid = 0; oid < 300; ++oid) {
      auto p = RandomPoint<3>(&rng, 0.0, 60.0);
      tree.Insert(oid, p, 0.0);
      oracle.Insert(oid, p);
    }
    std::vector<ObjectId> got, want;
    tree.NearestNeighbors({500, 500, 500}, 10.0, 5, &got);
    oracle.NearestNeighbors({500, 500, 500}, 10.0, 5, &want);
    EXPECT_EQ(got, want);
  }
}

// --------------------------------------------------------------------------
// Bulk loading.

TEST(BulkLoad, BuildsAValidTreeThatMatchesTheOracle) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallConfig(), &file);
  ReferenceIndex<2> oracle;
  Rng rng(93);
  std::vector<Tree<2>::BulkRecord> records;
  for (ObjectId oid = 0; oid < 5000; ++oid) {
    auto p = RandomPoint<2>(&rng, 0.0, 120.0);
    records.push_back({oid, p});
    oracle.Insert(oid, p);
  }
  tree.BulkLoad(std::move(records), 0.0);
  ExpectVerified(tree, 0.0);
  EXPECT_EQ(tree.leaf_entries(), 5000u);
  EXPECT_GE(tree.height(), 3);

  for (int iter = 0; iter < 100; ++iter) {
    Query<2> q = RandomQuery<2>(&rng, 0.0, 30.0, 200.0);
    std::vector<ObjectId> got, want;
    tree.Search(q, &got);
    oracle.Search(q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "iter " << iter;
  }
}

TEST(BulkLoad, AchievesTargetFill) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallConfig(), &file);
  Rng rng(94);
  std::vector<Tree<2>::BulkRecord> records;
  for (ObjectId oid = 0; oid < 4000; ++oid) {
    records.push_back({oid, RandomPoint<2>(&rng, 0.0, 1e5)});
  }
  tree.BulkLoad(std::move(records), 0.0, /*fill=*/0.8);
  TreeStats<2> stats = CollectStats(&tree, 0.0).value();
  // Leaf fill close to the target (within the even-chunking rounding).
  EXPECT_GT(stats.levels[0].avg_fill, 0.7);
  EXPECT_LE(stats.levels[0].avg_fill, 1.0);
}

TEST(BulkLoad, UsesFarFewerWritesThanRepeatedInserts) {
  Rng rng(95);
  std::vector<Tree<2>::BulkRecord> records;
  for (ObjectId oid = 0; oid < 3000; ++oid) {
    records.push_back({oid, RandomPoint<2>(&rng, 0.0, 1e5)});
  }
  MemoryPageFile bulk_file(512);
  Tree<2> bulk(SmallConfig(), &bulk_file);
  bulk.BulkLoad(records, 0.0);
  uint64_t bulk_io = bulk.io_stats().Total();

  MemoryPageFile inc_file(512);
  Tree<2> incremental(SmallConfig(), &inc_file);
  for (const auto& r : records) incremental.Insert(r.oid, r.point, 0.0);
  uint64_t incremental_io = incremental.io_stats().Total();

  EXPECT_LT(bulk_io * 5, incremental_io)
      << "bulk loading should be at least 5x cheaper in I/O";
}

TEST(BulkLoad, LoadedTreeAcceptsUpdatesAndExpiry) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallConfig(), &file);
  Rng rng(96);
  std::vector<Tree<2>::BulkRecord> records;
  for (ObjectId oid = 0; oid < 2000; ++oid) {
    records.push_back({oid, RandomPoint<2>(&rng, 0.0, 20.0)});
  }
  std::vector<Tpbr<2>> last;
  for (const auto& r : records) last.push_back(r.point);
  tree.BulkLoad(std::move(records), 0.0);

  // Normal life after bulk load: updates, expirations, lazy purge.
  Time now = 0;
  for (int round = 0; round < 3; ++round) {
    for (ObjectId oid = 0; oid < 2000; ++oid) {
      now += 0.005;
      // May fail once expired.
      (void)tree.Delete(oid, last[oid], now);
      last[oid] = RandomPoint<2>(&rng, now, 20.0);
      tree.Insert(oid, last[oid], now);
    }
    ExpectVerified(tree, now);
  }
  EXPECT_LT(tree.ExpiredLeafFraction(now), 0.15);
}

TEST(BulkLoad, EmptyAndTinyInputs) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  tree.BulkLoad({}, 0.0);
  EXPECT_EQ(tree.height(), 0);

  MemoryPageFile file2(4096);
  Tree<2> tiny(TreeConfig::Rexp(), &file2);
  std::vector<Tree<2>::BulkRecord> one;
  one.push_back({7, MakeMovingPoint<2>({5, 5}, {0, 0}, 0, 100)});
  tiny.BulkLoad(std::move(one), 0.0);
  EXPECT_EQ(tiny.height(), 1);
  std::vector<ObjectId> hits;
  tiny.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {10, 10}}, 1), &hits);
  EXPECT_EQ(hits, (std::vector<ObjectId>{7}));
  ExpectVerified(tiny, 0.0);
}

}  // namespace
}  // namespace rexp
