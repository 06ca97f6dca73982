// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Unit tests for the tree engine: basic insert/search/delete, node
// capacities (the paper's fan-outs), root growth and shrinkage, lazy
// purging of expired entries, TPR-tree semantics, and persistence.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/node.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomPoint;

TEST(NodeCodec, PaperFanouts) {
  // Section 5.1: 4 KiB pages hold 170 leaf entries and 102 internal
  // entries (velocities + expiration recorded).
  NodeCodec<2> with_exp(4096, /*velocities=*/true, /*expiration=*/true);
  EXPECT_EQ(with_exp.leaf_capacity(), 170);
  EXPECT_EQ(with_exp.internal_capacity(), 102);

  // Without recorded expiration internal entries shrink to 36 bytes.
  NodeCodec<2> no_exp(4096, true, false);
  EXPECT_EQ(no_exp.internal_capacity(), 113);

  // Static TPBRs drop the velocities, nearly doubling internal fan-out
  // (Section 4.1.2).
  NodeCodec<2> static_codec(4096, false, false);
  EXPECT_EQ(static_codec.internal_capacity(), 204);
  EXPECT_GT(static_codec.internal_capacity(),
            with_exp.internal_capacity() * 19 / 10);
}

TEST(NodeCodec, LeafRoundTripIsExact) {
  NodeCodec<2> codec(4096, true, true);
  Rng rng(5);
  Node<2> node;
  node.level = 0;
  for (int i = 0; i < 50; ++i) {
    node.entries.push_back(
        NodeEntry<2>{RandomPoint<2>(&rng, 100.0), static_cast<uint32_t>(i)});
  }
  Page page(4096);
  codec.Encode(node, &page);
  Node<2> decoded;
  codec.Decode(page, &decoded);
  ASSERT_EQ(decoded.level, 0);
  ASSERT_EQ(decoded.entries.size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(decoded.entries[i].id, node.entries[i].id);
    for (int d = 0; d < 2; ++d) {
      EXPECT_EQ(decoded.entries[i].region.lo[d], node.entries[i].region.lo[d]);
      EXPECT_EQ(decoded.entries[i].region.vlo[d],
                node.entries[i].region.vlo[d]);
    }
    EXPECT_EQ(static_cast<float>(decoded.entries[i].region.t_exp),
              static_cast<float>(node.entries[i].region.t_exp));
  }
}

TEST(NodeCodec, InternalRoundTripOnlyWidens) {
  NodeCodec<2> codec(4096, true, true);
  Rng rng(6);
  Node<2> node;
  node.level = 1;
  for (int i = 0; i < 30; ++i) {
    Tpbr<2> r;
    for (int d = 0; d < 2; ++d) {
      r.lo[d] = rng.Uniform(0, 1000);
      r.hi[d] = r.lo[d] + rng.Uniform(0, 50);
      r.vlo[d] = rng.Uniform(-3, 3);
      r.vhi[d] = r.vlo[d] + rng.Uniform(0, 1);
    }
    r.t_exp = rng.Uniform(0, 500);
    node.entries.push_back(NodeEntry<2>{r, static_cast<uint32_t>(i)});
  }
  Page page(4096);
  codec.Encode(node, &page);
  Node<2> decoded;
  codec.Decode(page, &decoded);
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const Tpbr<2>& orig = node.entries[i].region;
    const Tpbr<2>& got = decoded.entries[i].region;
    for (int d = 0; d < 2; ++d) {
      EXPECT_LE(got.lo[d], orig.lo[d]);
      EXPECT_GE(got.hi[d], orig.hi[d]);
      EXPECT_LE(got.vlo[d], orig.vlo[d]);
      EXPECT_GE(got.vhi[d], orig.vhi[d]);
    }
    EXPECT_GE(got.t_exp, orig.t_exp);
  }
}

TreeConfig SmallPageConfig() {
  // Small pages make multi-level trees cheap to build in unit tests.
  TreeConfig c = TreeConfig::Rexp();
  c.page_size = 512;
  c.buffer_frames = 8;
  return c;
}

TEST(Tree, InsertAndTimesliceQuery) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  Time now = 0;
  auto p1 = MakeMovingPoint<2>({10, 10}, {1, 0}, now, 100);
  auto p2 = MakeMovingPoint<2>({500, 500}, {0, 0}, now, 100);
  tree.Insert(1, p1, now);
  tree.Insert(2, p2, now);

  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {50, 50}}, 5), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1u);

  hits.clear();
  // At t = 45, object 1 has moved to x = 55: outside [0,50].
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {50, 50}}, 45), &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(Tree, ExpiredObjectIsNotReported) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  auto p = MakeMovingPoint<2>({10, 10}, {0, 0}, 0, /*t_exp=*/10);
  tree.Insert(1, p, 0);
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {50, 50}}, 5), &hits);
  EXPECT_EQ(hits.size(), 1u);
  hits.clear();
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {50, 50}}, 20), &hits);
  EXPECT_TRUE(hits.empty()) << "query past the expiration time";
}

TEST(Tree, DeleteRemovesEntry) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  auto p = MakeMovingPoint<2>({10, 10}, {1, 1}, 0, 100);
  tree.Insert(1, p, 0);
  EXPECT_TRUE(tree.Delete(1, p, 5));
  EXPECT_FALSE(tree.Delete(1, p, 5)) << "second delete must fail";
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {100, 100}}, 6), &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(Tree, DeleteOfExpiredEntryFailsUnlessSeeExpired) {
  // Paper Section 4.3: the regular delete does not see expired entries.
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  auto p = MakeMovingPoint<2>({10, 10}, {1, 1}, 0, /*t_exp=*/10);
  tree.Insert(1, p, 0);
  EXPECT_FALSE(tree.Delete(1, p, 20));
  EXPECT_TRUE(tree.Delete(1, p, 20, /*see_expired=*/true));
}

TEST(Tree, GrowsAndShrinksAcrossLevels) {
  MemoryPageFile file(512);
  TreeConfig config = SmallPageConfig();
  Tree<2> tree(config, &file);
  Rng rng(9);
  Time now = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> records;
  for (ObjectId oid = 0; oid < 2000; ++oid) {
    auto p = RandomPoint<2>(&rng, now, /*max_life=*/1e6);
    tree.Insert(oid, p, now);
    records.push_back({oid, p});
  }
  EXPECT_GE(tree.height(), 3);
  tree.CheckInvariants(now);

  // Delete everything; the tree must shrink back and leak no pages.
  for (const auto& [oid, p] : records) {
    ASSERT_TRUE(tree.Delete(oid, p, now));
  }
  tree.CheckInvariants(now);
  EXPECT_EQ(tree.leaf_entries(), 0u);
  EXPECT_LE(tree.height(), 1);
  EXPECT_LE(file.allocated_pages(), 3u);  // Meta slots (+ empty leaf root).
}

TEST(Tree, LazyPurgeKeepsExpiredFractionLow) {
  MemoryPageFile file(512);
  TreeConfig config = SmallPageConfig();
  Tree<2> tree(config, &file);
  Rng rng(10);
  // Continuously updating workload where entries expire after 2*UI.
  double ui = 10.0;
  std::vector<Tpbr<2>> last(500);
  Time now = 0;
  for (ObjectId oid = 0; oid < 500; ++oid) {
    last[oid] = RandomPoint<2>(&rng, now, 2 * ui);
    tree.Insert(oid, last[oid], now);
  }
  for (int round = 0; round < 20; ++round) {
    for (ObjectId oid = 0; oid < 500; ++oid) {
      now += ui / 500;
      if (rng.Bernoulli(0.7)) {
        // May fail if expired: fine.
        (void)tree.Delete(oid, last[oid], now);
        last[oid] = RandomPoint<2>(&rng, now, 2 * ui);
        tree.Insert(oid, last[oid], now);
      }
    }
  }
  tree.CheckInvariants(now);
  EXPECT_LT(tree.ExpiredLeafFraction(now), 0.15)
      << "lazy purge failed to keep expired entries rare";
}

TEST(Tree, TprModeReportsFalseDrops) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Tpr(), &file);
  auto p = MakeMovingPoint<2>({10, 10}, {0, 0}, 0, /*t_exp=*/10);
  tree.Insert(1, p, 0);
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {50, 50}}, 20), &hits);
  ASSERT_EQ(hits.size(), 1u) << "TPR-tree ignores expiration (false drop)";
}

TEST(Tree, PersistsAcrossReopen) {
  MemoryPageFile file(4096);
  Rng rng(12);
  std::vector<std::pair<ObjectId, Tpbr<2>>> records;
  TreeConfig config = TreeConfig::Rexp();
  {
    Tree<2> tree(config, &file);
    for (ObjectId oid = 0; oid < 500; ++oid) {
      auto p = RandomPoint<2>(&rng, 0.0, 1e6);
      tree.Insert(oid, p, 0.0);
      records.push_back({oid, p});
    }
  }
  Tree<2> reopened(config, &file);
  reopened.CheckInvariants(0.0);
  EXPECT_EQ(reopened.leaf_entries(), 500u);
  std::vector<ObjectId> hits;
  reopened.Search(
      Query<2>::Window(Rect<2>{{0, 0}, {1000, 1000}}, 0.0, 1.0), &hits);
  EXPECT_EQ(hits.size(), 500u);
  // Deleting through the reopened tree still works.
  EXPECT_TRUE(reopened.Delete(records[0].first, records[0].second, 0.0));
}

TEST(Tree, WorksOnDiskPageFile) {
  std::string path = ::testing::TempDir() + "/rexp_tree_disk_test.bin";
  auto file = DiskPageFile::Open(path, 4096).value();
  Tree<2> tree(TreeConfig::Rexp(), file.get());
  Rng rng(13);
  for (ObjectId oid = 0; oid < 300; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 1e6), 0.0);
  }
  tree.CheckInvariants(0.0);
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Window(Rect<2>{{0, 0}, {1000, 1000}}, 0.0, 1.0),
              &hits);
  EXPECT_EQ(hits.size(), 300u);
}

TEST(Tree, SearchCountsIo) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallPageConfig(), &file);
  Rng rng(14);
  for (ObjectId oid = 0; oid < 1000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 1e6), 0.0);
  }
  tree.ResetIoStats();
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Window(Rect<2>{{0, 0}, {1000, 1000}}, 0.0, 1.0),
              &hits);
  // A full-space query must touch many pages; with only 8 buffer frames
  // most fetches are misses.
  EXPECT_GT(tree.io_stats().reads, 10u);
  EXPECT_EQ(hits.size(), 1000u);
}

TEST(Tree, UpdateIntervalEstimateConverges) {
  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  config.initial_ui = 1.0;  // Deliberately wrong; must be re-estimated.
  Tree<2> tree(config, &file);
  Rng rng(15);
  // 2000 live objects, each updated every ~40 time units => one insert
  // every 0.02 time units.
  double true_ui = 40.0;
  int n = 2000;
  Time now = 0;
  std::vector<Tpbr<2>> last(n);
  for (int oid = 0; oid < n; ++oid) {
    now += true_ui / n;
    last[oid] = RandomPoint<2>(&rng, now, 1e6);
    tree.Insert(oid, last[oid], now);
  }
  for (int round = 0; round < 3; ++round) {
    for (int oid = 0; oid < n; ++oid) {
      now += true_ui / n;
      (void)tree.Delete(oid, last[oid], now);
      last[oid] = RandomPoint<2>(&rng, now, 1e6);
      tree.Insert(oid, last[oid], now);
    }
  }
  EXPECT_NEAR(tree.horizon().ui(), true_ui, true_ui * 0.25);
}

// The skip-filtered best-first search answers exactly the brute-force k
// nearest among the objects it does not skip, in rank order. Positions on
// a coarse integer grid, queried from grid points, make many neighbours
// equidistant, so ties must resolve by object id as in the oracle.
TEST(Tree, SkipFilteredNearestNeighborsMatchOracle) {
  MemoryPageFile file(512);
  Tree<2> tree(SmallPageConfig(), &file);
  Rng rng(0x5EED);
  const Time now = 1.0;
  std::vector<Tpbr<2>> records;
  for (ObjectId oid = 0; oid < 800; ++oid) {
    const Vec<2> pos{10.0 * static_cast<double>(rng.UniformInt(30)),
                     10.0 * static_cast<double>(rng.UniformInt(30))};
    const Vec<2> vel{0.0, oid % 4 == 0 ? 1.0 : 0.0};
    records.push_back(MakeMovingPoint<2>(pos, vel, now, 500.0));
    tree.Insert(oid, records.back(), now);
  }
  const Time t = 2.0;
  for (double skip_fraction : {0.0, 0.5, 0.95}) {
    std::vector<bool> skipped(records.size());
    ReferenceIndex<2> oracle;
    for (ObjectId oid = 0; oid < records.size(); ++oid) {
      skipped[oid] = rng.Bernoulli(skip_fraction);
      if (!skipped[oid]) oracle.Insert(oid, records[oid]);
    }
    auto skip = [&skipped](ObjectId oid) { return skipped[oid]; };
    for (int k : {1, 10, 64}) {
      for (int i = 0; i < 40; ++i) {
        const Vec<2> q{10.0 * static_cast<double>(rng.UniformInt(30)),
                       10.0 * static_cast<double>(rng.UniformInt(30))};
        std::vector<Tree<2>::NnResult> got;
        tree.NearestNeighbors(q, t, k, &got, skip);
        std::vector<ObjectId> got_ids, want;
        for (const auto& r : got) got_ids.push_back(r.oid);
        oracle.NearestNeighbors(q, t, k, &want);
        ASSERT_EQ(got_ids, want) << "skip " << skip_fraction << " k=" << k
                                 << " query " << i;
      }
    }
  }
  // Without a predicate the answer is the unfiltered one, and both
  // overloads agree.
  ReferenceIndex<2> full;
  for (ObjectId oid = 0; oid < records.size(); ++oid) {
    full.Insert(oid, records[oid]);
  }
  for (int k : {1, 10, 64}) {
    const Vec<2> q{150.0, 150.0};
    std::vector<Tree<2>::NnResult> got;
    std::vector<ObjectId> got_ids, plain, want;
    tree.NearestNeighbors(q, t, k, &got);
    for (const auto& r : got) got_ids.push_back(r.oid);
    tree.NearestNeighbors(q, t, k, &plain);
    full.NearestNeighbors(q, t, k, &want);
    EXPECT_EQ(got_ids, want) << "k=" << k;
    EXPECT_EQ(plain, want) << "k=" << k;
  }
}

}  // namespace
}  // namespace rexp
