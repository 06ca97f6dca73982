// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// A one-dimensional scenario in the spirit of the paper's Figure 1
// ("Example One-Dimensional Data Set and Queries"): cars on a road,
// reported as linear functions of time with expiration times; insertions,
// updates and expirations change which objects the three query types
// report, and queries are positioned on the time axis by the times they
// ask about, not the time they are issued.
//
// Also exercises the statistics module as a structural fingerprint.

#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/stats.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;

// Convenience: 1-D timeslice/window query over a position interval.
Query<1> Slice(double lo, double hi, Time t) {
  return Query<1>::Timeslice(Rect<1>{{lo}, {hi}}, t);
}
Query<1> Window(double lo, double hi, Time t1, Time t2) {
  return Query<1>::Window(Rect<1>{{lo}, {hi}}, t1, t2);
}

std::vector<ObjectId> RunQuery(Tree<1>& tree, const Query<1>& q) {
  std::vector<ObjectId> hits;
  tree.Search(q, &hits);
  std::sort(hits.begin(), hits.end());
  return hits;
}

TEST(PaperScenario, Figure1StyleTimeline) {
  MemoryPageFile file(4096);
  Tree<1> tree(TreeConfig::Rexp(), &file);

  // t = 0: o1 northbound from km 10 at 5 km/min, trusted until t = 4.
  //        o2 parked at km -20, trusted until t = 9.
  //        o3 southbound from km 30 at 3 km/min, trusted until t = 6.
  auto o1_v1 = MakeMovingPoint<1>({10}, {5}, 0, 4);
  auto o2_v1 = MakeMovingPoint<1>({-20}, {0}, 0, 9);
  auto o3_v1 = MakeMovingPoint<1>({30}, {-3}, 0, 6);
  tree.Insert(1, o1_v1, 0);
  tree.Insert(2, o2_v1, 0);
  tree.Insert(3, o3_v1, 0);

  // A timeslice at t = 3 around km [20, 40]: o1 is predicted at km 25,
  // o3 at km 21 — both reported; o2 is far away.
  EXPECT_EQ(RunQuery(tree, Slice(20, 40, 3)), (std::vector<ObjectId>{1, 3}));

  // The same region at t = 5: o1's information has expired (t_exp = 4) —
  // even though its trajectory would pass through, it is not reported.
  // o3 (predicted at km 15) is outside.
  EXPECT_EQ(RunQuery(tree, Slice(20, 40, 5)), (std::vector<ObjectId>{}));

  // t = 2: o1 reports fresh parameters before expiring (like the paper's
  // o1 updated at time 2): now slower, trusted until t = 8.
  ASSERT_TRUE(tree.Delete(1, o1_v1, 2));
  auto o1_v2 = MakeMovingPoint<1>({20}, {2}, 2, 8);
  tree.Insert(1, o1_v2, 2);

  // The answer to "who is in [20, 40] at t = 5" changes after the update:
  // o1 is now predicted at km 26 and its record is live until 8.
  EXPECT_EQ(RunQuery(tree, Slice(20, 40, 5)), (std::vector<ObjectId>{1}));

  // A window query spanning [2, 7] over [-25, -15] finds the parked o2
  // throughout.
  EXPECT_EQ(RunQuery(tree, Window(-25, -15, 2, 7)), (std::vector<ObjectId>{2}));

  // o3 expires at 6 without ever updating (the paper: "some expire before
  // being updated", e.g. with intermittent connectivity). A window [5, 10]
  // around its predicted positions only sees it while it is still valid:
  // at t in [5, 6], o3 covers km [12, 15].
  EXPECT_EQ(RunQuery(tree, Window(11, 16, 5, 10)), (std::vector<ObjectId>{3}));
  // Past its expiration nothing is reported there.
  EXPECT_EQ(RunQuery(tree, Window(0, 16, 7, 10)), (std::vector<ObjectId>{}));

  // A moving query: a patrol driving north alongside o1's predicted path
  // from km 24 to km 32 during [4, 7] (o1 moves 2 km/min from km 24 at 4).
  auto moving = Query<1>::Moving(Rect<1>{{22}, {26}}, Rect<1>{{28}, {32}},
                                 4, 7);
  EXPECT_EQ(RunQuery(tree, moving), (std::vector<ObjectId>{1}));

  ExpectVerified(tree, 2.0);
}

TEST(PaperScenario, QueriesFarInTheFutureSeeFewObjects) {
  // Figure 1's discussion: queries far beyond the expiration horizon are
  // of little value — the expiration times eliminate "wrong" objects.
  MemoryPageFile file(4096);
  Tree<1> tree(TreeConfig::Rexp(), &file);
  Rng rng(71);
  for (ObjectId oid = 0; oid < 500; ++oid) {
    tree.Insert(oid, RandomPoint<1>(&rng, 0.0, /*max_life=*/30.0), 0.0);
  }
  std::vector<ObjectId> near_hits, far_hits;
  tree.Search(Window(0, 1000, 0, 10), &near_hits);
  tree.Search(Window(0, 1000, 100, 200), &far_hits);
  EXPECT_GT(near_hits.size(), 400u);
  EXPECT_EQ(far_hits.size(), 0u) << "everything expires by t = 30";
}

TEST(TreeStatsModule, ReportsPlausibleStructure) {
  MemoryPageFile file(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  Tree<2> tree(config, &file);
  Rng rng(72);
  for (ObjectId oid = 0; oid < 3000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 1e5), 0.0);
  }
  TreeStats<2> stats = CollectStats(&tree, 0.0).value();
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_EQ(stats.pages, tree.PagesUsed());
  ASSERT_GE(stats.levels.size(), 2u);
  EXPECT_EQ(stats.levels[0].entries, 3000u);
  EXPECT_EQ(stats.levels[0].live_entries, 3000u);
  // Non-root nodes are between 40% and 100% full; the root may hold any
  // number of entries.
  for (size_t l = 0; l + 1 < stats.levels.size(); ++l) {
    EXPECT_GT(stats.levels[l].avg_fill, 0.35) << "level " << l;
    EXPECT_LE(stats.levels[l].avg_fill, 1.0);
    EXPECT_GT(stats.levels[l].nodes, 0u);
  }
  // Level node counts shrink going up; the root level has one node.
  for (size_t l = 1; l < stats.levels.size(); ++l) {
    EXPECT_LT(stats.levels[l].nodes, stats.levels[l - 1].nodes);
  }
  EXPECT_EQ(stats.levels.back().nodes, 1u);
  // Leaf entries are points: zero extent; internal bounds have positive
  // average extent.
  EXPECT_EQ(stats.levels[0].avg_extent, 0.0);
  EXPECT_GT(stats.levels[1].avg_extent, 0.0);

  std::string report = FormatStats(stats);
  EXPECT_NE(report.find("height"), std::string::npos);
  EXPECT_NE(report.find("level"), std::string::npos);
}

TEST(TreeStatsModule, LiveFractionDropsAsEntriesExpire) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  Rng rng(73);
  for (ObjectId oid = 0; oid < 1000; ++oid) {
    tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 10.0), 0.0);
  }
  TreeStats<2> before = CollectStats(&tree, 0.0).value();
  EXPECT_EQ(before.levels[0].live_entries, 1000u);
  TreeStats<2> after = CollectStats(&tree, 20.0).value();
  EXPECT_EQ(after.levels[0].live_entries, 0u);
  EXPECT_EQ(after.levels[0].entries, 1000u) << "purge is lazy";
}

}  // namespace
}  // namespace rexp
