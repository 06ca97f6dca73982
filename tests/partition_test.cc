// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the velocity-partitioned index family (DESIGN.md §14):
// speed-class routing, the streaming speed histogram behind the online
// boundary retune, oracle-backed boundary-crossing churn (the per-tree
// invariant catalog — kDatMapping included — must hold in every
// partition after every migration wave), decayed-partition merging,
// per-class query fan-out on the calling thread, GroupUpdate parity,
// disk persistence through the router manifest, and offline
// verification of a closed partitioned index (the rexp_fsck --manifest
// code path), clean and with a seeded routing violation.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/query.h"
#include "common/random.h"
#include "obs/registry.h"
#include "partition/partition_verify.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/meta_format.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomQuery;

TreeConfig SmallConfig() {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  return config;
}

// A partitioned index over K fresh in-memory page files, with the files
// owned here (the index borrows them, mirroring the harness).
struct TestIndex {
  TestIndex(const TreeConfig& config, const PartitionedOptions& options) {
    for (int i = 0; i < options.partitions; ++i) {
      files.push_back(
          std::make_unique<MemoryPageFile>(config.page_size));
    }
    Reopen(config, options);
  }
  // Closes the index (its trees commit) and opens a new one over the
  // same files.
  void Reopen(const TreeConfig& config, const PartitionedOptions& options) {
    index.reset();
    std::vector<PageFile*> raw;
    for (auto& f : files) raw.push_back(f.get());
    index = std::make_unique<PartitionedIndex<2>>(config, raw, options);
  }
  std::vector<std::unique_ptr<MemoryPageFile>> files;
  std::unique_ptr<PartitionedIndex<2>> index;
};

// A canonical moving point with an exact speed |v| (direction fixed so
// routing decisions are deterministic in the tests).
Tpbr<2> PointWithSpeed(Rng* rng, double speed, Time now,
                       double life = 200.0) {
  const double angle = rng->Uniform(0, 6.28318530718);
  Vec<2> pos{rng->Uniform(0, testing::kSpace),
             rng->Uniform(0, testing::kSpace)};
  Vec<2> vel{speed * std::cos(angle), speed * std::sin(angle)};
  return MakeMovingPoint<2>(pos, vel, now, now + life);
}

// The class whose tree holds a copy of `oid` (live or expired): -1 for
// none, -2 for more than one.
int ClassOf(const PartitionedIndex<2>& index, ObjectId oid) {
  int holder = -1;
  for (int i = 0; i < index.partitions(); ++i) {
    if (index.tree(i).HoldsObject(oid)) holder = holder == -1 ? i : -2;
  }
  return holder;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Two classes split at speed 1.5 (K = 2, no retune), with long-lived
// neighbours (oids 100-139) in both.
PartitionedOptions TwoFixedClasses() {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  options.initial_max_speed = 3.0;
  return options;
}
void InsertNeighbours(PartitionedIndex<2>* index, Rng* rng) {
  for (ObjectId oid = 100; oid < 140; ++oid) {
    const double speed = oid % 2 == 0 ? 0.5 : 2.5;
    index->Insert(oid, PointWithSpeed(rng, speed, 0.0, 1e6), 0.0);
  }
}

// Object 1 reports at `first_speed` with a record that expires at t=5,
// then re-reports at t=10 at `second_speed`, in the other class. Its
// expired copy lingers in the first class (lazy purge). Returns the live
// record.
Tpbr<2> SeedExpiredCrossing(PartitionedIndex<2>* index, Rng* rng,
                            double first_speed, double second_speed) {
  InsertNeighbours(index, rng);
  const Tpbr<2> short_lived = PointWithSpeed(rng, first_speed, 0.0, 5.0);
  index->Insert(1, short_lived, 0.0);
  const Tpbr<2> live = PointWithSpeed(rng, second_speed, 10.0, 1e6);
  EXPECT_FALSE(index->Update(1, short_lived, live, 10.0));
  EXPECT_EQ(ClassOf(*index, 1), -2);
  return live;
}

// --- Routing ----------------------------------------------------------

TEST(PartitionRouting, InitialEqualWidthBoundaries) {
  PartitionedOptions options;
  options.partitions = 3;
  options.retune_every = 0;  // Keep the seed boundaries.
  options.initial_max_speed = 3.0;
  TestIndex t(SmallConfig(), options);

  const auto table = t.index->RoutingTableForTest();
  ASSERT_EQ(table.size(), 3u);
  EXPECT_DOUBLE_EQ(table[0].second, 1.0);
  EXPECT_DOUBLE_EQ(table[1].second, 2.0);
  EXPECT_TRUE(std::isinf(table[2].second));

  EXPECT_EQ(t.index->RouteClassForTest(0.0), 0);
  EXPECT_EQ(t.index->RouteClassForTest(1.0), 0);  // Inclusive upper.
  EXPECT_EQ(t.index->RouteClassForTest(1.5), 1);
  EXPECT_EQ(t.index->RouteClassForTest(100.0), 2);
}

TEST(PartitionRouting, InsertMapsObjectToItsSpeedClass) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex t(SmallConfig(), options);
  Rng rng(7);

  const Tpbr<2> slow = PointWithSpeed(&rng, 0.5, 0.0);
  const Tpbr<2> fast = PointWithSpeed(&rng, 2.5, 0.0);
  t.index->Insert(1, slow, 0.0);
  t.index->Insert(2, fast, 0.0);

  EXPECT_EQ(ClassOf(*t.index, 1), 0);
  EXPECT_EQ(ClassOf(*t.index, 2), 1);
  EXPECT_EQ(t.index->tree(0)->leaf_entries(), 1u);
  EXPECT_EQ(t.index->tree(1)->leaf_entries(), 1u);
  EXPECT_TRUE(t.index->Verify(0.0).ok());
}

TEST(SpeedHistogram, EquiDepthBoundariesTrackTheMass) {
  partition::SpeedHistogram h;
  // Heavily bimodal: most mass slow, a thin fast tail.
  for (int i = 0; i < 900; ++i) h.Record(0.1);
  for (int i = 0; i < 100; ++i) h.Record(6.0);
  const std::vector<double> uppers = h.Boundaries(2, 3.0);
  ASSERT_EQ(uppers.size(), 1u);
  // The median sits in the slow mode, far below the equal-width 1.5.
  EXPECT_LT(uppers[0], 1.0);
  EXPECT_GE(uppers[0], 0.1);
}

TEST(SpeedHistogram, FallbackAndDecay) {
  partition::SpeedHistogram h;
  const std::vector<double> fallback = h.Boundaries(3, 3.0);
  ASSERT_EQ(fallback.size(), 2u);
  EXPECT_DOUBLE_EQ(fallback[0], 1.0);
  EXPECT_DOUBLE_EQ(fallback[1], 2.0);

  for (int i = 0; i < 100; ++i) h.Record(1.0);
  EXPECT_EQ(h.total(), 100u);
  h.Decay();
  EXPECT_EQ(h.total(), 50u);
}

// --- Boundary-crossing churn against the oracle -----------------------

// The satellite's core property: a partitioned index under speed drift
// that repeatedly crosses class boundaries answers every query exactly
// like the brute-force oracle, and after every migration wave the full
// invariant catalog (per-tree kDatMapping included, via Verify) plus
// the router cross-checks hold in every partition.
TEST(PartitionChurn, DriftingSpeedsMatchOracleAcrossMigrations) {
  PartitionedOptions options;
  options.partitions = 3;
  options.retune_every = 64;  // Exercise retunes mid-churn.
  options.merge_fraction = 0.0;  // Merges covered separately.
  TestIndex t(SmallConfig(), options);
  ReferenceIndex<2> oracle(/*expire_entries=*/true);
  Rng rng(1234);

  constexpr int kObjects = 160;
  constexpr int kRounds = 12;
  std::vector<Tpbr<2>> current(kObjects);
  std::vector<double> speed(kObjects);

  Time now = 0.0;
  for (int i = 0; i < kObjects; ++i) {
    speed[i] = rng.Uniform(0.05, 3.0);
    current[i] = PointWithSpeed(&rng, speed[i], now);
    t.index->Insert(static_cast<ObjectId>(i), current[i], now);
    oracle.Insert(static_cast<ObjectId>(i), current[i]);
  }

  for (int round = 0; round < kRounds; ++round) {
    now += 5.0;
    // Every object reports with a drifted speed; the sinusoidal swing
    // takes most of the population across at least one class boundary
    // per cycle.
    for (int i = 0; i < kObjects; ++i) {
      speed[i] = std::clamp(
          speed[i] + 1.2 * std::sin(0.7 * round + 0.1 * i), 0.01, 6.0);
      const Tpbr<2> next = PointWithSpeed(&rng, speed[i], now);
      const bool tree_found = t.index->Update(
          static_cast<ObjectId>(i), current[i], next, now);
      const bool oracle_found =
          oracle.Update(static_cast<ObjectId>(i), current[i], next, now);
      EXPECT_EQ(tree_found, oracle_found) << "oid " << i;
      current[i] = next;
    }

    // After the wave: full catalog in every partition + router checks.
    const verify::Report report = t.index->Verify(now);
    EXPECT_TRUE(report.ok()) << report.ToString();

    for (int q = 0; q < 12; ++q) {
      const Query<2> query = RandomQuery<2>(&rng, now);
      std::vector<ObjectId> got, want;
      t.index->Search(query, &got);
      oracle.Search(query, &want);
      EXPECT_EQ(Sorted(got), Sorted(want)) << "round " << round;
    }

    std::vector<ObjectId> got_nn, want_nn;
    const Vec<2> center{rng.Uniform(0, testing::kSpace),
                        rng.Uniform(0, testing::kSpace)};
    t.index->NearestNeighbors(center, now, 5, &got_nn);
    oracle.NearestNeighbors(center, now, 5, &want_nn);
    EXPECT_EQ(got_nn, want_nn);
  }

  const auto stats = t.index->stats();
  EXPECT_GT(stats.migrations, 0u);  // The drift actually crossed classes.
  EXPECT_GT(stats.retunes, 0u);
  EXPECT_EQ(stats.updates, static_cast<uint64_t>(kObjects) * kRounds);
}

TEST(PartitionChurn, DeleteAndReinsertKeepMapConsistent) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex t(SmallConfig(), options);
  Rng rng(99);

  const Tpbr<2> a = PointWithSpeed(&rng, 0.4, 0.0);
  t.index->Insert(5, a, 0.0);
  EXPECT_TRUE(t.index->Delete(5, a, 1.0));
  EXPECT_EQ(ClassOf(*t.index, 5), -1);
  // A second delete finds no class holding a copy.
  EXPECT_FALSE(t.index->Delete(5, a, 1.0));

  // Re-insert at a boundary-crossing speed lands in the other class.
  const Tpbr<2> b = PointWithSpeed(&rng, 2.8, 1.0);
  t.index->Insert(5, b, 1.0);
  EXPECT_EQ(ClassOf(*t.index, 5), 1);
  EXPECT_TRUE(t.index->Verify(1.0).ok());
}

TEST(PartitionChurn, ExpiredCopyLeftBehindKeepsLiveVerifyClean) {
  TestIndex t(SmallConfig(), TwoFixedClasses());
  Rng rng(61);
  SeedExpiredCrossing(t.index.get(), &rng, 0.5, 2.5);
  const verify::Report report = t.index->Verify(10.0);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Live Verify runs rexp_fsck's class checks over the live records.
TEST(PartitionRouting, LiveVerifyFindsAnObjectLiveInTwoClasses) {
  TestIndex t(SmallConfig(), TwoFixedClasses());
  Rng rng(71);
  InsertNeighbours(t.index.get(), &rng);
  t.index->tree(0)->Insert(7, PointWithSpeed(&rng, 0.5, 0.0, 1e6), 0.0);
  t.index->tree(1)->Insert(7, PointWithSpeed(&rng, 2.5, 0.0, 1e6), 0.0);
  const verify::Report report = t.index->Verify(1.0);
  ASSERT_EQ(report.TotalFindings(), 1u) << report.ToString();
  EXPECT_EQ(report.findings[0].check, verify::CheckId::kPartitionRouting);
  EXPECT_EQ(report.findings[0].detail, "oid 7 live in partition 0 and 1");
}

// --- GroupUpdate ------------------------------------------------------

TEST(PartitionGroupUpdate, MatchesPerOpUpdateIncludingMigrations) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex batched(SmallConfig(), options);
  TestIndex serial(SmallConfig(), options);
  ReferenceIndex<2> oracle;
  Rng rng(4321);

  constexpr int kObjects = 60;
  std::vector<Tpbr<2>> current(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    current[i] = PointWithSpeed(&rng, rng.Uniform(0.05, 3.0), 0.0);
    batched.index->Insert(static_cast<ObjectId>(i), current[i], 0.0);
    serial.index->Insert(static_cast<ObjectId>(i), current[i], 0.0);
    oracle.Insert(static_cast<ObjectId>(i), current[i]);
  }

  const Time now = 5.0;
  std::vector<Tree<2>::UpdateRequest> requests;
  for (int i = 0; i < kObjects; ++i) {
    // Half the batch crosses the 1.5 boundary on purpose.
    const double s = (i % 2 == 0) ? rng.Uniform(2.0, 3.0)
                                  : rng.Uniform(0.05, 1.0);
    requests.push_back(Tree<2>::UpdateRequest{
        static_cast<ObjectId>(i), current[i],
        PointWithSpeed(&rng, s, now)});
  }

  const std::vector<bool> got =
      batched.index->GroupUpdate(requests, now);
  ASSERT_EQ(got.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const bool want = serial.index->Update(
        requests[i].oid, requests[i].old_record, requests[i].new_record,
        now);
    EXPECT_EQ(got[i], want) << "request " << i;
    (void)oracle.Update(requests[i].oid, requests[i].old_record,
                        requests[i].new_record, now);
  }
  EXPECT_TRUE(batched.index->Verify(now).ok());
  EXPECT_GT(batched.index->stats().migrations, 0u);

  // The batch is Update in batch order: the same page I/O, class
  // populations, buffer touches and migrations as the per-op index.
  EXPECT_EQ(batched.index->TotalIo(), serial.index->TotalIo());
  EXPECT_EQ(batched.index->stats().migrations,
            serial.index->stats().migrations);
  for (int c = 0; c < options.partitions; ++c) {
    const Tree<2>& b = *batched.index->tree(c);
    const Tree<2>& s = *serial.index->tree(c);
    EXPECT_EQ(b.leaf_entries(), s.leaf_entries()) << "class " << c;
    EXPECT_EQ(b.io_stats().hits + b.io_stats().misses,
              s.io_stats().hits + s.io_stats().misses)
        << "class " << c;
  }

  for (int q = 0; q < 10; ++q) {
    const Query<2> query = RandomQuery<2>(&rng, now);
    std::vector<ObjectId> a, b;
    batched.index->Search(query, &a);
    oracle.Search(query, &b);
    EXPECT_EQ(Sorted(a), Sorted(b));
  }
}

TEST(PartitionGroupUpdate, DuplicateOidsFallBackToBatchOrder) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex t(SmallConfig(), options);
  Rng rng(11);

  const Tpbr<2> first = PointWithSpeed(&rng, 0.3, 0.0);
  t.index->Insert(1, first, 0.0);
  const Tpbr<2> second = PointWithSpeed(&rng, 2.5, 1.0);
  const Tpbr<2> third = PointWithSpeed(&rng, 0.2, 1.0);
  // Chained same-oid updates: the second must see the first's result.
  const std::vector<bool> results = t.index->GroupUpdate(
      {Tree<2>::UpdateRequest{1, first, second},
       Tree<2>::UpdateRequest{1, second, third}},
      1.0);
  EXPECT_EQ(results, (std::vector<bool>{true, true}));
  EXPECT_EQ(ClassOf(*t.index, 1), 0);
  EXPECT_EQ(t.index->leaf_entries(), 1u);
  EXPECT_TRUE(t.index->Verify(1.0).ok());
}

// --- Merging ----------------------------------------------------------

TEST(PartitionMerge, DecayedClassIsMergedAndQueriesStillMatch) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 16;
  options.merge_fraction = 0.10;
  TestIndex t(SmallConfig(), options);
  ReferenceIndex<2> oracle;
  Rng rng(555);

  // Populate both classes (interleaved — a run of same-class inserts
  // would leave the other class empty at a maintenance scan and merge
  // it during warm-up), then drain the fast class via updates so its
  // population decays below merge_fraction.
  constexpr int kObjects = 120;
  std::vector<Tpbr<2>> current(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    const double s = (i % 2 == 0) ? rng.Uniform(0.05, 1.0)
                                  : rng.Uniform(2.0, 3.0);
    current[i] = PointWithSpeed(&rng, s, 0.0);
    t.index->Insert(static_cast<ObjectId>(i), current[i], 0.0);
    oracle.Insert(static_cast<ObjectId>(i), current[i]);
  }
  ASSERT_EQ(t.index->active_partitions(), 2);

  // The whole population converges onto one narrow speed band (a single
  // histogram bin). Equi-depth retunes cannot split a point mass, so
  // every retuned boundary admits the band into class 0, migrations
  // drain class 1 to zero, and the decay merge fires. A wide slow band
  // would NOT merge: the retune would rebalance it across both classes.
  Time now = 0.0;
  for (int wave = 0; wave < 3; ++wave) {
    now += 3.0;
    for (int i = 0; i < kObjects; ++i) {
      const Tpbr<2> next =
          PointWithSpeed(&rng, rng.Uniform(0.10, 0.12), now);
      ASSERT_TRUE(t.index->Update(static_cast<ObjectId>(i), current[i],
                                  next, now));
      ASSERT_TRUE(oracle.Update(static_cast<ObjectId>(i), current[i],
                                next, now));
      current[i] = next;
    }
  }

  const auto stats = t.index->stats();
  EXPECT_GT(stats.merges, 0u);
  EXPECT_GT(stats.merge_moves, 0u);
  EXPECT_EQ(t.index->active_partitions(), 1);

  const verify::Report report = t.index->Verify(now);
  EXPECT_TRUE(report.ok()) << report.ToString();
  for (int q = 0; q < 15; ++q) {
    const Query<2> query = RandomQuery<2>(&rng, now);
    std::vector<ObjectId> got, want;
    t.index->Search(query, &got);
    oracle.Search(query, &want);
    EXPECT_EQ(Sorted(got), Sorted(want));
  }

  // The merged-away class takes no further routes: new extreme-speed
  // inserts land in the surviving class.
  t.index->Insert(9999, PointWithSpeed(&rng, 5.0, now), now);
  EXPECT_EQ(ClassOf(*t.index, 9999), 0);
  EXPECT_TRUE(t.index->Verify(now).ok());
}

// --- Query fan-out ----------------------------------------------------

// A window the fast class cannot reach still visits it: every active,
// non-empty class is searched, and the answer is the oracle's.
TEST(PartitionSearch, FarWindowVisitsEveryClassAndMatchesOracle) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex t(SmallConfig(), options);
  ReferenceIndex<2> oracle;

  // Slow objects near the origin, fast objects in the far corner.
  for (int i = 0; i < 20; ++i) {
    const double off = 2.0 * i;
    const Tpbr<2> slow =
        MakeMovingPoint<2>({10 + off, 10 + off}, {0.1, 0.1}, 0.0, 500.0);
    const Tpbr<2> fast =
        MakeMovingPoint<2>({900 + off, 900 + off}, {2.0, 0.0}, 0.0, 500.0);
    t.index->Insert(static_cast<ObjectId>(i), slow, 0.0);
    t.index->Insert(static_cast<ObjectId>(100 + i), fast, 0.0);
    oracle.Insert(static_cast<ObjectId>(i), slow);
    oracle.Insert(static_cast<ObjectId>(100 + i), fast);
  }
  ASSERT_EQ(ClassOf(*t.index, 0), 0);
  ASSERT_EQ(ClassOf(*t.index, 100), 1);

  const Query<2> near_origin =
      Query<2>::Timeslice(Rect<2>::Cube({0, 0}, 100.0), 1.0);
  std::vector<ObjectId> got, want;
  t.index->Search(near_origin, &got);
  oracle.Search(near_origin, &want);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(Sorted(got), Sorted(want));

  const auto stats = t.index->stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.partitions_searched, 2u);
}

// The 2nd and 3rd neighbours are equally far away but live in different
// classes; the lower oid sits in the class visited last. The merged
// answer breaks the tie by oid, as a single tree and the oracle do.
TEST(PartitionSearch, NnTieAcrossClassesIsOrderedByOid) {
  TestIndex t(SmallConfig(), TwoFixedClasses());
  ReferenceIndex<2> oracle;
  auto insert = [&](ObjectId oid, Vec<2> pos, Vec<2> vel) {
    const Tpbr<2> p = MakeMovingPoint<2>(pos, vel, 0.0, 1000.0);
    t.index->Insert(oid, p, 0.0);
    oracle.Insert(oid, p);
  };
  insert(7, {501, 500}, {0.5, 0});   // Nearest, slow class.
  insert(20, {503, 500}, {0.5, 0});  // Tie at distance 3, slow class.
  insert(10, {497, 500}, {2.5, 0});  // Tie at distance 3, fast class.
  for (int i = 0; i < 6; ++i) {      // Far from the query in both classes.
    const double off = 50.0 + 10.0 * i;
    insert(static_cast<ObjectId>(30 + i), {500 + off, 500}, {0.5, 0});
    insert(static_cast<ObjectId>(40 + i), {500 - off, 500}, {2.5, 0});
  }
  ASSERT_EQ(ClassOf(*t.index, 20), 0);
  ASSERT_EQ(ClassOf(*t.index, 10), 1);

  for (int k = 2; k <= 3; ++k) {
    std::vector<ObjectId> got, want;
    t.index->NearestNeighbors({500, 500}, 0.0, k, &got);
    oracle.NearestNeighbors({500, 500}, 0.0, k, &want);
    EXPECT_EQ(got, want) << "k = " << k;
  }
  std::vector<ObjectId> got;
  t.index->NearestNeighbors({500, 500}, 0.0, 2, &got);
  EXPECT_EQ(got, (std::vector<ObjectId>{7, 10}));
}

// Queries run on the calling thread: building and querying an index with
// default options starts no thread.
TEST(PartitionSearch, DefaultOptionsStartNoThread) {
  const std::filesystem::path tasks = "/proc/self/task";
  std::error_code ec;
  if (!std::filesystem::is_directory(tasks, ec)) {
    GTEST_SKIP() << tasks << " is not available";
  }
  auto threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = threads();
  TestIndex t(SmallConfig(), PartitionedOptions{});
  Rng rng(5);
  for (ObjectId oid = 0; oid < 200; ++oid) {
    t.index->Insert(oid, PointWithSpeed(&rng, rng.Uniform(0.05, 3.0), 0.0),
                    0.0);
  }
  std::vector<ObjectId> out;
  t.index->Search(RandomQuery<2>(&rng, 1.0), &out);
  t.index->NearestNeighbors({500, 500}, 1.0, 5, &out);
  EXPECT_EQ(threads(), before);
}

// A monitor samples the registry while writers grow both classes' roots.
// Every gauge must read tree structure under the tree's epoch: a
// per-class population gauge that called Tree::leaf_entries() bare raced
// GrowRoot's resize of the level counts (TSan reports it). A class's
// population is its epoch-guarded `p<i>.tree.tree.leaf_entries`.
TEST(PartitionMetrics, SnapshotWhileRootsGrowIsRaceFree) {
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  TestIndex t(SmallConfig(), options);
  obs::MetricsRegistry registry;
  t.index->RegisterMetrics(&registry, "");

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    while (!done.load(std::memory_order_relaxed)) (void)registry.Snapshot();
  });
  Rng rng(29);
  for (ObjectId oid = 0; oid < 1500; ++oid) {
    const double speed = oid % 2 == 0 ? 0.5 : 2.5;
    t.index->Insert(oid, PointWithSpeed(&rng, speed, 0.0), 0.0);
  }
  done.store(true, std::memory_order_relaxed);
  monitor.join();

  const char* const kLeafEntries[] = {"p0.tree.tree.leaf_entries",
                                      "p1.tree.tree.leaf_entries"};
  for (int i = 0; i < 2; ++i) {
    EXPECT_GE(t.index->tree(i)->height(), 3) << "class " << i;
    double entries = 0;
    ASSERT_TRUE(registry.Lookup(kLeafEntries[i], &entries));
    EXPECT_EQ(entries,
              static_cast<double>(t.index->tree(i)->leaf_entries()));
  }
  double unused = 0;
  EXPECT_FALSE(registry.Lookup("partition.p0.population", &unused));
}

// --- Disk persistence and offline verification ------------------------

TEST(PartitionDisk, ReopenRestoresRoutingAndAnswers) {
  const std::string base = ::testing::TempDir() + "/rexp_part_reopen";
  for (int i = 0; i < 4; ++i) {
    std::remove((base + ".p" + std::to_string(i)).c_str());
  }
  std::remove((base + ".manifest").c_str());

  TreeConfig config = SmallConfig();
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 32;
  options.merge_fraction = 0.0;
  Rng rng(77);

  constexpr int kObjects = 80;
  std::vector<Tpbr<2>> current(kObjects);
  ReferenceIndex<2> oracle;
  std::vector<std::pair<int, double>> table_before;
  {
    auto index_or =
        PartitionedIndex<2>::OpenDisk(config, base, options);
    ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
    auto index = std::move(index_or).value();
    for (int i = 0; i < kObjects; ++i) {
      current[i] =
          PointWithSpeed(&rng, rng.Uniform(0.05, 3.0), 0.0, 1e6);
      index->Insert(static_cast<ObjectId>(i), current[i], 0.0);
      oracle.Insert(static_cast<ObjectId>(i), current[i]);
    }
    // Drifted reports so the learned boundaries move off the seeds.
    for (int i = 0; i < kObjects; ++i) {
      const Tpbr<2> next =
          PointWithSpeed(&rng, rng.Uniform(0.05, 3.0), 1.0, 1e6);
      ASSERT_TRUE(index->Update(static_cast<ObjectId>(i), current[i],
                                next, 1.0));
      ASSERT_TRUE(oracle.Update(static_cast<ObjectId>(i), current[i],
                                next, 1.0));
      current[i] = next;
    }
    table_before = index->RoutingTableForTest();
    ASSERT_TRUE(index->Commit().ok());
  }  // Destructor rewrites the manifest.

  {
    // `options.partitions` deliberately disagrees: the manifest wins.
    PartitionedOptions reopen = options;
    reopen.partitions = 7;
    auto index_or =
        PartitionedIndex<2>::OpenDisk(config, base, reopen);
    ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
    auto index = std::move(index_or).value();
    EXPECT_EQ(index->partitions(), 2);
    EXPECT_EQ(index->RoutingTableForTest(), table_before);

    const verify::Report report = index->Verify(2.0);
    EXPECT_TRUE(report.ok()) << report.ToString();
    for (int q = 0; q < 15; ++q) {
      const Query<2> query = RandomQuery<2>(&rng, 2.0);
      std::vector<ObjectId> got, want;
      index->Search(query, &got);
      oracle.Search(query, &want);
      EXPECT_EQ(Sorted(got), Sorted(want)) << "query " << q;
    }
    // Updates keep working against the reopened (rebuilt) class map.
    const Tpbr<2> next = PointWithSpeed(&rng, 2.9, 2.0, 1e6);
    EXPECT_TRUE(index->Update(0, current[0], next, 2.0));
    EXPECT_TRUE(index->Verify(2.0).ok());
  }

  for (int i = 0; i < 2; ++i) {
    std::remove((base + ".p" + std::to_string(i)).c_str());
  }
  std::remove((base + ".manifest").c_str());
}

// After a reopen both classes' trees list object 1: its live record in
// class 0 and an expired copy in class 1. Updates, queries and deletes
// must find the live record.
TEST(PartitionDisk, ReopenFindsTheLiveRecordBesideAnExpiredCopy) {
  const PartitionedOptions options = TwoFixedClasses();
  TestIndex t(SmallConfig(), options);
  Rng rng(67);
  const Tpbr<2> live = SeedExpiredCrossing(t.index.get(), &rng, 2.5, 0.5);
  ASSERT_TRUE(t.index->Commit().ok());
  t.Reopen(SmallConfig(), options);
  ASSERT_EQ(ClassOf(*t.index, 1), -2);

  const Tpbr<2> next = PointWithSpeed(&rng, 0.5, 11.0, 1e6);
  EXPECT_TRUE(t.index->Update(1, live, next, 11.0));
  Rect<2> everywhere;
  everywhere.lo = {-1e5, -1e5};
  everywhere.hi = {1e5, 1e5};
  std::vector<ObjectId> got;
  t.index->Search(Query<2>::Window(everywhere, 11.0, 12.0), &got);
  EXPECT_EQ(std::count(got.begin(), got.end(), ObjectId{1}), 1);
  EXPECT_TRUE(t.index->Delete(1, next, 11.0));
  const verify::Report report = t.index->Verify(11.0);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(PartitionFsck, ClosedIndexVerifiesCleanAndSeededDamageIsFound) {
  const std::string base = ::testing::TempDir() + "/rexp_part_fsck";
  for (int i = 0; i < 2; ++i) {
    std::remove((base + ".p" + std::to_string(i)).c_str());
  }
  const std::string manifest_path = base + ".manifest";
  std::remove(manifest_path.c_str());

  TreeConfig config = SmallConfig();
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  Rng rng(31);
  {
    auto index_or =
        PartitionedIndex<2>::OpenDisk(config, base, options);
    ASSERT_TRUE(index_or.ok()) << index_or.status().ToString();
    auto index = std::move(index_or).value();
    for (int i = 0; i < 60; ++i) {
      index->Insert(static_cast<ObjectId>(i),
                    PointWithSpeed(&rng, rng.Uniform(0.05, 3.0), 0.0, 1e6),
                    0.0);
    }
    ASSERT_TRUE(index->Commit().ok());
  }

  // The closed index passes the offline check rexp_fsck --manifest runs.
  verify::VerifyOptions vopt;
  vopt.now = 1.0;
  int dims = 0;
  verify::Report clean = partition::VerifyPartitionedAuto(
      manifest_path, config, vopt, &dims);
  EXPECT_EQ(dims, 2);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
  EXPECT_GT(clean.leaf_records_checked, 0u);

  // Seeded routing damage: clamp class 1's recorded speed ceiling below
  // its residents' true speeds. The offline checker must flag the live
  // records as faster than their class's vmax.
  auto manifest_or = partition::ReadManifest(manifest_path);
  ASSERT_TRUE(manifest_or.ok());
  partition::Manifest damaged = std::move(manifest_or).value();
  ASSERT_EQ(damaged.entries.size(), 2u);
  damaged.entries[1].vmax = 0.01;
  ASSERT_TRUE(partition::WriteManifest(damaged, manifest_path).ok());

  verify::Report report = partition::VerifyPartitionedAuto(
      manifest_path, config, vopt, &dims);
  EXPECT_FALSE(report.ok());
  bool routing_finding = false;
  for (const verify::Finding& f : report.findings) {
    if (f.check == verify::CheckId::kPartitionRouting) {
      routing_finding = true;
    }
  }
  EXPECT_TRUE(routing_finding) << report.ToString();

  for (int i = 0; i < 2; ++i) {
    std::remove((base + ".p" + std::to_string(i)).c_str());
  }
  std::remove(manifest_path.c_str());
}

// Reopening per-class files whose manifest is gone rewrites the manifest
// from the class trees: each populated class's ceiling is the fastest
// record it holds, so the offline check finds the reopened index sound.
TEST(PartitionFsck, ReopenWithoutManifestRecordsEachClassCeiling) {
  const std::string base = ::testing::TempDir() + "/rexp_part_nomanifest." +
                           std::to_string(getpid());
  const std::string manifest_path = base + ".manifest";
  auto remove_files = [&] {
    for (int i = 0; i < 2; ++i) {
      std::remove((base + ".p" + std::to_string(i)).c_str());
    }
    std::remove(manifest_path.c_str());
  };
  remove_files();
  TreeConfig config = SmallConfig();
  PartitionedOptions options;
  options.partitions = 2;
  options.retune_every = 0;
  options.initial_max_speed = 3.0;
  Rng rng(53);
  {
    auto index = PartitionedIndex<2>::OpenDisk(config, base, options).value();
    for (int i = 0; i < 60; ++i) {
      const double speed = i < 30 ? 0.5 : 2.5;
      index->Insert(static_cast<ObjectId>(i),
                    PointWithSpeed(&rng, speed, 0.0, 1e6), 0.0);
    }
    ASSERT_TRUE(index->Commit().ok());
  }
  ASSERT_EQ(std::remove(manifest_path.c_str()), 0);
  {
    auto index = PartitionedIndex<2>::OpenDisk(config, base, options).value();
    EXPECT_EQ(index->leaf_entries(), 60u);
  }
  verify::VerifyOptions vopt;
  vopt.now = 1.0;
  int dims = 0;
  const verify::Report report =
      partition::VerifyPartitionedAuto(manifest_path, config, vopt, &dims);
  EXPECT_EQ(dims, 2);
  EXPECT_EQ(report.TotalFindings(), 0u) << report.ToString();
  EXPECT_GT(report.leaf_records_checked, 0u);
  remove_files();
}

// The offline partition checker's class-discipline verdicts, each seeded
// into a closed two-class index: oids 0-29 are slow (class 0) and 30-59
// fast (class 1). The damage goes in through a plain Tree on one
// partition file, through the manifest, or as raw page bytes.
class PartitionFsckClasses : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "/rexp_part_classes." +
            std::to_string(getpid());
    RemoveFiles();
    PartitionedOptions options;
    options.partitions = 2;
    options.retune_every = 0;
    options.initial_max_speed = 3.0;
    auto index = PartitionedIndex<2>::OpenDisk(SmallConfig(), base_, options)
                     .value();
    Rng rng(41);
    for (int i = 0; i < 60; ++i) {
      const double speed = i < 30 ? 0.5 : 2.5;
      index->Insert(static_cast<ObjectId>(i),
                    PointWithSpeed(&rng, speed, 0.0, 1e6), 0.0);
    }
    ASSERT_EQ(ClassOf(*index, 0), 0);
    ASSERT_EQ(ClassOf(*index, 30), 1);
    ASSERT_TRUE(index->Commit().ok());
  }
  void TearDown() override { RemoveFiles(); }

  void RemoveFiles() const {
    for (int i = 0; i < 2; ++i) std::remove(PartPath(i).c_str());
    std::remove(ManifestPath().c_str());
  }
  std::string PartPath(int i) const {
    return base_ + ".p" + std::to_string(i);
  }
  std::string ManifestPath() const { return base_ + ".manifest"; }

  verify::Report Check() const {
    verify::VerifyOptions vopt;
    vopt.now = 1.0;
    return partition::VerifyPartitioned<2>(ManifestPath(), SmallConfig(),
                                           vopt);
  }

  void EditManifest(
      const std::function<void(partition::Manifest*)>& edit) const {
    partition::Manifest manifest =
        partition::ReadManifest(ManifestPath()).value();
    edit(&manifest);
    ASSERT_TRUE(partition::WriteManifest(manifest, ManifestPath()).ok());
  }

  static std::vector<std::string> RoutingFindings(const verify::Report& r) {
    std::vector<std::string> out;
    for (const verify::Finding& f : r.findings) {
      if (f.check == verify::CheckId::kPartitionRouting) {
        out.push_back(f.detail);
      }
    }
    return out;
  }

  std::string base_;
};

TEST_F(PartitionFsckClasses, OidLiveInTwoPartitionsIsFound) {
  {
    auto file = DiskPageFile::Open(PartPath(1), 512, /*keep=*/true).value();
    auto tree = Tree<2>::Open(SmallConfig(), file.get()).value();
    Rng rng(43);
    tree->Insert(5, PointWithSpeed(&rng, 2.5, 0.0, 1e6), 0.0);
  }  // Closing commits.
  const verify::Report r = Check();
  EXPECT_TRUE(r.walk_complete);
  const std::vector<std::string> routing = RoutingFindings(r);
  ASSERT_EQ(routing.size(), 1u) << r.ToString();
  EXPECT_EQ(routing[0], "oid 5 live in partition 0 and 1");
  EXPECT_EQ(r.TotalFindings(), 1u) << r.ToString();
}

TEST_F(PartitionFsckClasses, MergedAwayPartitionHoldingRecordsIsFound) {
  EditManifest([](partition::Manifest* m) { m->entries[1].active = false; });
  const verify::Report r = Check();
  const std::vector<std::string> routing = RoutingFindings(r);
  ASSERT_EQ(routing.size(), 1u) << r.ToString();
  EXPECT_EQ(routing[0], "merged-away partition 1 still holds 30 live records");
  EXPECT_EQ(r.TotalFindings(), 1u) << r.ToString();
}

// A damaged level tag cuts partition 0's walk short: its structural
// finding stands, and no class-discipline check runs over the half-walked
// file (its clamped speed ceiling would otherwise be flagged).
TEST_F(PartitionFsckClasses, DamagedNodeSkipsThatPartitionsClassChecks) {
  EditManifest([](partition::Manifest* m) { m->entries[0].vmax = 0.01; });
  ASSERT_EQ(RoutingFindings(Check()).size(), 1u)
      << "the clamped ceiling must be flagged while the file is intact";
  {
    auto file = DiskPageFile::Open(PartPath(0), 512, /*keep=*/true).value();
    const MetaRead meta = ReadMeta(file.get(), 2);
    ASSERT_TRUE(meta.walkable());
    Page page(512);
    ASSERT_TRUE(file->ReadPage(meta.state.root, &page).ok());
    page.Write<uint16_t>(0, static_cast<uint16_t>(meta.state.height + 5));
    ASSERT_TRUE(file->WritePage(meta.state.root, page).ok());
  }
  const verify::Report r = Check();
  EXPECT_FALSE(r.walk_complete);
  EXPECT_TRUE(RoutingFindings(r).empty()) << r.ToString();
  ASSERT_EQ(r.TotalFindings(), 1u) << r.ToString();
  EXPECT_EQ(r.findings[0].check, verify::CheckId::kNodeStructure);
  EXPECT_EQ(r.findings[0].detail.rfind("p0: ", 0), 0u) << r.ToString();
}

}  // namespace
}  // namespace rexp
