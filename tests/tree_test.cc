// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Unit tests for the tree engine: basic insert/search/delete, node
// capacities (the paper's fan-outs), root growth and shrinkage, lazy
// purging of expired entries, TPR-tree semantics, and persistence.

#include <algorithm>
#include <map>
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

using ::rexp::testing::ExpectVerified;
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

  // A tree of height >= 3 whose target leaf holds other expired records.
  // The target is reached through its DAT-pinned leaf, then — a second,
  // live copy of the object making its DAT count 2 — by a descent.
  for (const bool duplicate : {false, true}) {
    SCOPED_TRACE(duplicate ? "descent" : "DAT-pinned leaf");
    MemoryPageFile small_file(512);
    Tree<2> deep(SmallPageConfig(), &small_file);
    Rng rng(11);
    std::set<ObjectId> live;
    for (ObjectId oid = 0; oid < 1000; ++oid) {
      const Vec<2> pos{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
      const Vec<2> vel{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
      deep.Insert(oid, MakeMovingPoint<2>(pos, vel, 0, 1000), 0);
      live.insert(oid);
    }
    // Five stationary records at one spot, all expiring at t = 10.
    constexpr ObjectId kTarget = 5000;
    std::vector<Tpbr<2>> doomed;
    for (ObjectId i = 0; i < 5; ++i) {
      doomed.push_back(
          MakeMovingPoint<2>({500.0 + 0.01 * i, 500.0}, {0, 0}, 0, 10));
      deep.Insert(kTarget + i, doomed.back(), 0);
    }
    if (duplicate) {
      deep.Insert(kTarget, MakeMovingPoint<2>({100, 100}, {0, 0}, 0, 1000),
                  0);
      live.insert(kTarget);
    }
    ASSERT_GE(deep.height(), 3);
    std::map<ObjectId, verify::DatSnapshotEntry> dat;
    for (const auto& e : deep.DatSnapshotForTest()) dat[e.oid] = e;
    ASSERT_EQ(dat[kTarget].count, duplicate ? 2u : 1u);
    for (ObjectId i = duplicate ? 1 : 0; i < 5; ++i) {
      ASSERT_EQ(dat[kTarget + i].leaf, dat[kTarget + 1].leaf)
          << "the expired records share one leaf";
    }

    const Time now = 20;
    EXPECT_FALSE(deep.Delete(kTarget, doomed[0], now));
    EXPECT_TRUE(deep.Delete(kTarget, doomed[0], now, /*see_expired=*/true));
    EXPECT_FALSE(deep.Delete(kTarget, doomed[0], now, /*see_expired=*/true))
        << "the record is gone";
    const verify::Report report = deep.Verify(now);
    EXPECT_TRUE(report.ok()) << report.ToString();
    // The removal found its record first, then purged the leaf it changed
    // of the other expired records; every live record stays.
    dat.clear();
    for (const auto& e : deep.DatSnapshotForTest()) dat[e.oid] = e;
    for (ObjectId i = 1; i < 5; ++i) EXPECT_EQ(dat.count(kTarget + i), 0u);
    EXPECT_EQ(deep.leaf_entries(), live.size());
    std::vector<ObjectId> hits;
    deep.Search(Query<2>::Timeslice(Rect<2>{{-1e4, -1e4}, {1e4, 1e4}}, now),
                &hits);
    EXPECT_EQ(std::set<ObjectId>(hits.begin(), hits.end()), live);
  }
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
  ExpectVerified(tree, now);

  // Delete everything; the tree must shrink back and leak no pages.
  for (const auto& [oid, p] : records) {
    ASSERT_TRUE(tree.Delete(oid, p, now));
  }
  ExpectVerified(tree, now);
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
  ExpectVerified(tree, now);
  EXPECT_LT(tree.ExpiredLeafFraction(now).value(), 0.15)
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
  ExpectVerified(reopened, 0.0);
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
  ExpectVerified(tree, 0.0);
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

// FNV-1a over `n` bytes, continuing from *h.
void HashBytes(const void* data, size_t n, uint64_t* h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) *h = (*h ^ p[i]) * 0x100000001b3ULL;
}

// Hashes the tree's buffer-boundary I/O so far, its operation counters,
// its shape, and the bytes of every page reachable from its root as
// committed to `file`.
uint64_t HashTreeState(Tree<2>* tree, PageFile* file) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const uint64_t io = tree->TotalIo();
  HashBytes(&io, sizeof(io), &h);
  for (const auto& [name, counter] : TreeOpStats::kCounters) {
    // Read costs are left out, as level_reads are: the hash pins what
    // the mutations write, and decodes are a cost that read paths may
    // lower without changing a page.
    if (counter == &TreeOpStats::node_decodes) continue;
    const uint64_t value = (tree->op_stats().*counter).load();
    HashBytes(&value, sizeof(value), &h);
  }
  const int height = tree->height();
  HashBytes(&height, sizeof(height), &h);
  for (uint64_t count : tree->level_counts()) {
    HashBytes(&count, sizeof(count), &h);
  }
  EXPECT_TRUE(tree->Commit().ok());
  std::vector<PageId> pages;
  EXPECT_TRUE(tree->ForEachNode([&pages](PageId id, const Node<2>&) {
                    pages.push_back(id);
                  }).ok());
  Page page(file->page_size());
  for (PageId id : pages) {
    EXPECT_TRUE(file->ReadPage(id, &page).ok());
    HashBytes(&id, sizeof(id), &h);
    HashBytes(page.data(), page.size(), &h);
  }
  return h;
}

// Pins what the single-record mutations do to the pages, bit for bit:
// one fixed-seed stream of Insert, Delete (with and without see_expired)
// and Update (all three tiers) on 512-byte pages, a tree of height >= 3
// whose short-lived records make the lazy purge drop whole subtrees.
// GroupUpdate gets a stream and a hash of its own. Recorded on x86-64
// (see TpbrNearOptimal.GoldenCorpusIsBitIdentical).
class TreeGolden : public ::testing::TestWithParam<bool> {};

TEST_P(TreeGolden, SequentialMutationsKeepPageBytes) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hash recorded for x86-64 floating point";
#endif
  TreeConfig config = SmallPageConfig();
  config.crash_consistent = GetParam();
  struct Obj {
    ObjectId oid;
    Tpbr<2> rec;
  };
  Rng rng(0x601D);
  auto life = [&rng] {
    return rng.Bernoulli(0.4) ? rng.Uniform(2.0, 12.0)
                              : rng.Uniform(150.0, 400.0);
  };
  auto point = [&rng](Time now, Time t_exp, double side) {
    const Vec<2> pos{rng.Uniform(0, side), rng.Uniform(0, side)};
    const Vec<2> vel{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    return MakeMovingPoint<2>(pos, vel, now, t_exp);
  };

  MemoryPageFile file(512);
  Tree<2> tree(config, &file);
  std::vector<Obj> objs;
  ObjectId next_oid = 0;
  Time now = 0;
  for (int i = 0; i < 1200; ++i) {
    now += 0.01;
    objs.push_back({next_oid++, point(now, now + life(), 1000.0)});
    tree.Insert(objs.back().oid, objs.back().rec, now);
  }
  // A burst of records packed into one corner that all expire together:
  // their own subtree, dropped whole once a later operation modifies its
  // parent.
  for (int i = 0; i < 300; ++i) {
    const Tpbr<2> p = point(now, now + rng.Uniform(1.0, 2.0), 60.0);
    tree.Insert(next_oid++, p, now);
  }
  EXPECT_GE(tree.height(), 3);
  for (int i = 0; i < 4000; ++i) {
    now += 0.01;
    const size_t k = rng.UniformInt(objs.size());
    Obj& o = objs[k];
    const double pick = rng.NextDouble();
    if (pick < 0.5) {
      // The same trajectory and expiry (in place), the same trajectory
      // living a little longer (propagated up the parent chain, or a
      // fallback), or a jump (fallback).
      const uint64_t shape = rng.UniformInt(3);
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = shape == 2 ? rng.Uniform(0, 1000.0) : o.rec.LoAt(d, now);
        vel[d] = shape == 2 ? rng.Uniform(-3, 3) : o.rec.vlo[d];
      }
      const Time t_exp = shape == 0   ? o.rec.t_exp
                         : shape == 1 ? o.rec.t_exp + rng.Uniform(0.0, 2.0)
                                      : now + life();
      const Tpbr<2> next = MakeMovingPoint<2>(pos, vel, now, t_exp);
      (void)tree.Update(o.oid, o.rec, next, now);
      o.rec = next;
    } else if (pick < 0.7) {
      // An expired record is only found with see_expired (and not at all
      // once a purge of its leaf dropped it).
      if (!tree.Delete(o.oid, o.rec, now)) {
        (void)tree.Delete(o.oid, o.rec, now, /*see_expired=*/true);
      }
      o = objs.back();
      objs.pop_back();
    } else {
      objs.push_back({next_oid++, point(now, now + life(), 1000.0)});
      tree.Insert(objs.back().oid, objs.back().rec, now);
    }
  }
  for (const Obj& o : objs) {
    if (!tree.Delete(o.oid, o.rec, now)) {
      (void)tree.Delete(o.oid, o.rec, now, /*see_expired=*/true);
    }
  }
  ExpectVerified(tree, now);
  const TreeOpStats& ops = tree.op_stats();
  EXPECT_GT(ops.splits.load(), 0u);
  EXPECT_GT(ops.forced_reinserts.load(), 0u);
  EXPECT_GT(ops.orphaned_entries.load(), 0u);
  EXPECT_GT(ops.purged_subtrees.load(), 0u);
  EXPECT_GT(ops.root_grows.load(), 0u);
  EXPECT_GT(ops.root_shrinks.load(), 0u);
  EXPECT_GT(ops.update_fallback.load(), 0u);
  if (config.crash_consistent) {
    // Copy-on-write leaves every covered update to the propagating tier.
    EXPECT_GT(ops.update_fast_propagations.load(), 0u);
  } else {
    EXPECT_GT(ops.update_fast.load(), ops.update_fast_propagations.load());
  }
  const uint64_t sequential = HashTreeState(&tree, &file);

  MemoryPageFile group_file(512);
  Tree<2> group(config, &group_file);
  objs.clear();
  for (int round = 0; round < 40; ++round) {
    now += 0.5;
    std::vector<Tree<2>::UpdateRequest> batch;
    for (int i = 0; i < (round == 0 ? 400 : 64); ++i) {
      if (round == 0 || rng.Bernoulli(0.2)) {
        const Tpbr<2> p = point(now, now + rng.Uniform(1.0, 20.0), 1000.0);
        batch.push_back({next_oid, {}, p, /*has_old_record=*/false});
        objs.push_back({next_oid++, p});
        continue;
      }
      Obj& o = objs[rng.UniformInt(objs.size())];
      const bool jump = rng.Bernoulli(0.3);
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = jump ? rng.Uniform(0, 1000.0) : o.rec.LoAt(d, now);
        vel[d] = jump ? rng.Uniform(-3, 3) : o.rec.vlo[d];
      }
      const Time t_exp =
          rng.Bernoulli(0.5) ? o.rec.t_exp : now + rng.Uniform(1.0, 20.0);
      const Tpbr<2> next = MakeMovingPoint<2>(pos, vel, now, t_exp);
      batch.push_back({o.oid, o.rec, next});
      o.rec = next;
    }
    (void)group.GroupUpdate(batch, now);
  }
  ExpectVerified(group, now);
  const uint64_t grouped = HashTreeState(&group, &group_file);

  const uint64_t want_sequential = config.crash_consistent
                                       ? 0x86e356fef5d2cdcdULL
                                       : 0xd5500f9b97af5764ULL;
  const uint64_t want_grouped = config.crash_consistent
                                    ? 0x0abdfac049c0811bULL
                                    : 0x49e818b845df6bacULL;
  EXPECT_EQ(sequential, want_sequential) << std::hex << "0x" << sequential;
  EXPECT_EQ(grouped, want_grouped) << std::hex << "0x" << grouped;
}

INSTANTIATE_TEST_SUITE_P(WriteModes, TreeGolden, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "crash_consistent"
                                             : "in_place";
                         });

}  // namespace
}  // namespace rexp
