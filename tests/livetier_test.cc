// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the in-memory live tier and the TieredIndex wrapper
// (DESIGN.md §12): short-expiry records dying in place with zero page
// I/O, query merge with suppression of stale tree copies, TakeBatch
// removing exactly the batch it returns, oracle-backed randomized churn
// with synchronous migration, DAT agreement after a full drain, and
// answer stability while a second thread ticks migration.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "livetier/live_tier.h"
#include "livetier/tiered_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/tree.h"
#include "verify/verifier.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

TreeConfig SmallConfig() {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  return config;
}

// --- LiveTier unit tests ----------------------------------------------

TEST(LiveTier, ReportAbsorbRemoveLifecycle) {
  LiveTier<2> tier{LiveTierOptions{}, /*expire=*/true};
  Tpbr<2> a = MakeMovingPoint<2>({10, 10}, {1, 1}, 0, 50.0);
  Tpbr<2> b = MakeMovingPoint<2>({20, 20}, {0, 0}, 1.0, 60.0);

  EXPECT_FALSE(tier.Report(7, a, 0));  // Fresh admission.
  EXPECT_TRUE(tier.Owns(7));
  EXPECT_EQ(tier.resident(), 1u);
  ASSERT_NE(tier.Find(7), nullptr);
  EXPECT_EQ(tier.Find(7)->t_exp, 50.0);

  EXPECT_TRUE(tier.Report(7, b, 1.0));  // Absorbed update, no tree I/O.
  EXPECT_EQ(tier.resident(), 1u);
  EXPECT_EQ(tier.Find(7)->t_exp, 60.0);
  EXPECT_EQ(tier.stats().admitted, 1u);
  EXPECT_EQ(tier.stats().updates_absorbed, 1u);
  EXPECT_TRUE(tier.CheckInvariants().ok());

  LiveTier<2>::DeadEntry dead;
  EXPECT_TRUE(tier.Remove(7, &dead));
  EXPECT_FALSE(dead.has_tree_record);
  EXPECT_FALSE(tier.Remove(7, &dead));
  EXPECT_EQ(tier.resident(), 0u);
  EXPECT_TRUE(tier.CheckInvariants().ok());
}

TEST(LiveTier, ExpireDueSeparatesInPlaceDeathsFromTreeCleanup) {
  LiveTier<2> tier{LiveTierOptions{}, /*expire=*/true};
  Tpbr<2> short_lived = MakeMovingPoint<2>({1, 1}, {0, 0}, 0, 2.0);
  Tpbr<2> with_copy = MakeMovingPoint<2>({2, 2}, {0, 0}, 0, 3.0);
  Tpbr<2> old_copy = MakeMovingPoint<2>({9, 9}, {0, 0}, 0, 1.5);
  Tpbr<2> survivor = MakeMovingPoint<2>({3, 3}, {0, 0}, 0, 100.0);

  tier.Report(1, short_lived, 0);
  tier.Report(2, with_copy, 0, &old_copy);  // Re-report of a migrated record.
  tier.Report(3, survivor, 0);
  EXPECT_EQ(tier.owned_in_tree(), 1u);

  std::vector<LiveTier<2>::DeadEntry> dead;
  tier.ExpireDue(10.0, &dead);
  EXPECT_EQ(tier.resident(), 1u);  // Only the survivor.
  EXPECT_TRUE(tier.Owns(3));
  EXPECT_EQ(tier.stats().died_in_place, 1u);
  EXPECT_EQ(tier.stats().died_with_tree_copy, 1u);
  ASSERT_EQ(dead.size(), 1u);  // Only oid 2 owes the tree a cleanup.
  EXPECT_EQ(dead[0].oid, 2u);
  ASSERT_TRUE(dead[0].has_tree_record);
  EXPECT_EQ(dead[0].tree_record.t_exp, 1.5);
  EXPECT_EQ(tier.owned_in_tree(), 0u);
  EXPECT_TRUE(tier.CheckInvariants().ok());
}

TEST(LiveTier, SupersededExpiryHeapItemsDoNotKillFreshRecords) {
  LiveTier<2> tier{LiveTierOptions{}, /*expire=*/true};
  Tpbr<2> dying = MakeMovingPoint<2>({1, 1}, {0, 0}, 0, 1.0);
  tier.Report(5, dying, 0);
  // A fresh report extends the object's life; the old heap item must be
  // recognized as stale by its expiry and skipped.
  Tpbr<2> extended = MakeMovingPoint<2>({1, 1}, {0, 0}, 0.5, 100.0);
  tier.Report(5, extended, 0.5);

  std::vector<LiveTier<2>::DeadEntry> dead;
  tier.ExpireDue(2.0, &dead);
  EXPECT_TRUE(tier.Owns(5));
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(tier.stats().died_in_place, 0u);
}

TEST(LiveTier, TakeBatchRemovesWhatItReturns) {
  LiveTier<2> tier{LiveTierOptions{}, /*expire=*/true};
  Tpbr<2> a = MakeMovingPoint<2>({10, 10}, {1, 0}, 0, 50.0);
  Tpbr<2> b = MakeMovingPoint<2>({500, 500}, {0, 1}, 0, 60.0);
  Tpbr<2> b_in_tree = MakeMovingPoint<2>({400, 400}, {0, 1}, 0, 40.0);
  tier.Report(1, a, 0);
  tier.Report(2, b, 0, &b_in_tree);  // Re-report of a migrated record.
  ASSERT_EQ(tier.owned_in_tree(), 1u);

  std::vector<LiveTier<2>::MigrationItem> batch;
  tier.TakeBatch(0.0, &batch, /*force=*/true);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].oid, 1u);
  EXPECT_FALSE(batch[0].has_tree_record);
  EXPECT_EQ(batch[0].record.t_exp, 50.0);
  EXPECT_EQ(batch[1].oid, 2u);
  ASSERT_TRUE(batch[1].has_tree_record);  // GroupUpdate replaces this copy.
  EXPECT_EQ(batch[1].tree_record.t_exp, 40.0);
  EXPECT_EQ(batch[1].record.t_exp, 60.0);

  // The batch left the tier: the tree owns both objects now.
  EXPECT_EQ(tier.resident(), 0u);
  EXPECT_FALSE(tier.Owns(1));
  EXPECT_FALSE(tier.Owns(2));
  EXPECT_EQ(tier.owned_in_tree(), 0u);
  EXPECT_EQ(tier.stats().migrated, 2u);
  EXPECT_TRUE(tier.CheckInvariants().ok());
  tier.TakeBatch(0.0, &batch, /*force=*/true);
  EXPECT_TRUE(batch.empty());

  // Their expiry heap items are stale now: expiring past them kills
  // nothing, and a re-report is a fresh admission.
  std::vector<LiveTier<2>::DeadEntry> dead;
  tier.ExpireDue(100.0, &dead);
  EXPECT_TRUE(dead.empty());
  EXPECT_EQ(tier.stats().died_in_place, 0u);
  EXPECT_FALSE(tier.Report(1, a, 1.0));
  EXPECT_EQ(tier.stats().admitted, 3u);
}

TEST(LiveTier, TakeBatchSkipsDyingAndHonorsQuietAge) {
  LiveTierOptions options;
  options.migrate_age = 5.0;
  options.min_residual_life = 1.0;
  LiveTier<2> tier{options, /*expire=*/true};
  // Quiet and long-lived: eligible. Recently reported: not yet. About to
  // expire: never (dies in place instead).
  const Tpbr<2> quiet = MakeMovingPoint<2>({1, 1}, {0, 0}, 0, 100.0);
  tier.Report(1, quiet, 0.0);
  tier.Report(2, MakeMovingPoint<2>({2, 2}, {0, 0}, 9.0, 100.0), 9.0);
  tier.Report(3, MakeMovingPoint<2>({3, 3}, {0, 0}, 0, 10.5), 0.0);

  std::vector<LiveTier<2>::MigrationItem> batch;
  tier.TakeBatch(10.0, &batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].oid, 1u);

  // Under pressure (force) age no longer matters, but dying records are
  // still skipped, and the oldest report goes first. (Oid 1 left with the
  // first batch; re-admit it at its old report time.)
  tier.Report(1, quiet, 0.0);
  tier.TakeBatch(10.0, &batch, /*force=*/true);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].oid, 1u);
  EXPECT_EQ(batch[1].oid, 2u);
}

// TakeBatch pops candidates off a report queue. It must return what a
// scan of every resident would: the eligible records (live, outside
// min_residual_life, quiet for migrate_age unless under pressure or
// forced), oldest report first, ties by oid, at most max_batch. Coarse
// time steps make equal report times common, so the cut often falls
// inside a run of them; chatty objects make stale queue items pile up
// until the queue is rebuilt.
TEST(LiveTier, TakeBatchMatchesAScanOfEveryResident) {
  LiveTierOptions options;
  options.migrate_age = 2.0;
  options.min_residual_life = 1.0;
  options.max_resident = 40;
  options.max_batch = 7;
  LiveTier<2> tier{options, /*expire=*/true};
  struct Resident {
    Tpbr<2> record;
    Time last_report;
  };
  std::map<ObjectId, Resident> model;
  // The scan TakeBatch replaced, over the model.
  auto scan = [&](Time now, bool force) {
    const bool pressure = force || model.size() > options.max_resident;
    std::vector<std::pair<Time, ObjectId>> eligible;
    for (const auto& [oid, r] : model) {
      if (!r.record.LiveAt(now) ||
          r.record.t_exp - now < options.min_residual_life) {
        continue;
      }
      if (!pressure && now - r.last_report < options.migrate_age) continue;
      eligible.emplace_back(r.last_report, oid);
    }
    std::sort(eligible.begin(), eligible.end());
    eligible.resize(std::min(eligible.size(), options.max_batch));
    return eligible;
  };

  Rng rng(0xF1F0);
  Time now = 0;
  std::vector<LiveTier<2>::MigrationItem> batch;
  std::vector<LiveTier<2>::DeadEntry> dead;
  size_t batches = 0, full_batches = 0;
  for (int op = 0; op < 20000; ++op) {
    if (rng.Bernoulli(0.3)) now += 0.5;  // Many reports share a time.
    const double roll = rng.NextDouble();
    if (roll < 0.6) {
      // Mostly a small, chatty population: re-reports leave stale items.
      const auto oid = static_cast<ObjectId>(rng.UniformInt(60));
      Tpbr<2> p = RandomPoint<2>(&rng, now, 12.0);
      tier.Report(oid, p, now);
      model[oid] = Resident{p, now};
    } else if (roll < 0.65) {
      LiveTier<2>::DeadEntry gone;
      const auto oid = static_cast<ObjectId>(rng.UniformInt(60));
      ASSERT_EQ(tier.Remove(oid, &gone), model.erase(oid) == 1);
    } else if (roll < 0.75) {
      dead.clear();
      tier.ExpireDue(now, &dead);
      std::erase_if(model, [&](const auto& kv) {
        return kv.second.record.t_exp < now;
      });
    } else {
      const bool force = rng.Bernoulli(0.2);
      const auto want = scan(now, force);
      tier.TakeBatch(now, &batch, force);
      ASSERT_EQ(batch.size(), want.size()) << "op " << op;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(batch[i].oid, want[i].second) << "op " << op << " item " << i;
        ASSERT_TRUE(SameRecord(batch[i].record, model[want[i].second].record));
        model.erase(want[i].second);
      }
      ++batches;
      if (batch.size() == options.max_batch) ++full_batches;
    }
    ASSERT_EQ(tier.resident(), model.size());
  }
  EXPECT_TRUE(tier.CheckInvariants().ok());
  // The cut was exercised, not just drains of everything eligible.
  EXPECT_GT(full_batches, 100u);
  EXPECT_GT(batches, full_batches);
}

TEST(LiveTier, BinBoundsRecomputeAfterChurn) {
  LiveTierOptions options;
  options.num_bins = 4;  // Force collisions so bins actually fill.
  LiveTier<2> tier{options, /*expire=*/true};
  Rng rng(0x11FE);
  for (ObjectId oid = 0; oid < 200; ++oid) {
    tier.Report(oid, RandomPoint<2>(&rng, 0.0, 500.0), 0.0);
  }
  ASSERT_TRUE(tier.CheckInvariants().ok());
  LiveTier<2>::DeadEntry dead;
  for (ObjectId oid = 0; oid < 150; ++oid) {
    ASSERT_TRUE(tier.Remove(oid, &dead));
  }
  EXPECT_GT(tier.stats().bin_rebuilds, 0u);
  EXPECT_TRUE(tier.CheckInvariants().ok());

  // Queries must still answer exactly from the recomputed bins.
  Query<2> everything =
      Query<2>::Timeslice(Rect<2>{{-1e9, -1e9}, {1e9, 1e9}}, 0.0);
  std::vector<ObjectId> hits;
  tier.Search(everything, &hits);
  EXPECT_EQ(hits.size(), 50u);
}

// --- TieredIndex ------------------------------------------------------

TEST(TieredIndex, ShortLivedReportsDieWithZeroPageIo) {
  MemoryPageFile file(512);
  TieredIndex<2> index(SmallConfig(), &file);
  Rng rng(0xBEEF);
  const uint64_t io_before = index.tree().io_stats().Total();

  Time now = 0;
  for (ObjectId oid = 0; oid < 200; ++oid) {
    now += 0.001;
    // Expire within a second of admission — the paper's short-lived
    // majority.
    index.Insert(oid, RandomPoint<2>(&rng, now, 1.0), now);
  }
  // Let everything expire, then poke the index so the expiry heap drains.
  now += 5.0;
  index.Insert(1000, RandomPoint<2>(&rng, now, 100.0), now);

  EXPECT_EQ(index.live_tier().stats().died_in_place, 200u);
  EXPECT_EQ(index.live_tier().stats().died_with_tree_copy, 0u);
  EXPECT_EQ(index.tree().io_stats().Total(), io_before);
  ExpectVerified(index, now);
}

TEST(TieredIndex, SearchSuppressesStaleTreeCopies) {
  MemoryPageFile file(512);
  TieredIndex<2> index(SmallConfig(), &file);
  Time now = 0;

  // Admit, then migrate into the tree.
  Tpbr<2> old_record = MakeMovingPoint<2>({100, 100}, {0, 0}, now, 500.0);
  index.Insert(42, old_record, now);
  ASSERT_EQ(index.DrainLiveTier(now), 1u);
  ASSERT_FALSE(index.live_tier().Owns(42));

  // Re-report far away: the object is owned again, its tree copy stale.
  now = 1.0;
  Tpbr<2> new_record = MakeMovingPoint<2>({800, 800}, {0, 0}, now, 500.0);
  ASSERT_TRUE(index.Update(42, old_record, new_record, now));
  ASSERT_TRUE(index.live_tier().Owns(42));

  auto window = [&](double lo, double hi) {
    return Query<2>::Timeslice(Rect<2>{{lo, lo}, {hi, hi}}, now);
  };

  std::vector<ObjectId> hits;
  // The old position would only be found via the stale tree copy, which
  // must be suppressed.
  index.Search(window(90, 110), &hits);
  EXPECT_TRUE(hits.empty());
  // The new position answers from the live tier, exactly once.
  index.Search(window(790, 810), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);

  // After migration the replacement holds: still exactly one copy, at
  // the new position.
  index.DrainLiveTier(now);
  index.Search(window(790, 810), &hits);
  ASSERT_EQ(hits.size(), 1u);
  index.Search(window(90, 110), &hits);
  EXPECT_TRUE(hits.empty());
  ExpectVerified(index, now);
}

// More than k owned objects keep stale tree copies nearer the query
// point than any genuine neighbor. The tree is asked for exactly k with
// owned objects skipped, so the stale copies must not fill its k slots.
TEST(TieredIndex, StaleTreeCopiesCannotCrowdOutNeighbors) {
  MemoryPageFile file(512);
  TieredIndex<2> index(SmallConfig(), &file);
  ReferenceIndex<2> reference;
  Time now = 0;
  constexpr ObjectId kStale = 30;
  std::vector<Tpbr<2>> near;
  for (ObjectId oid = 0; oid < kStale; ++oid) {
    near.push_back(MakeMovingPoint<2>({500.0 + oid, 500}, {0, 0}, now, 900));
    index.Insert(oid, near.back(), now);
  }
  for (ObjectId oid = 100; oid < 160; ++oid) {
    Tpbr<2> p = MakeMovingPoint<2>({600.0 + 5.0 * (oid - 100), 500}, {0, 0},
                                   now, 900);
    index.Insert(oid, p, now);
    reference.Insert(oid, p);
  }
  ASSERT_EQ(index.DrainLiveTier(now), kStale + 60);

  // Re-report the near objects far away: owned again, their tree copies
  // stale and nearer the query point than every genuine neighbor.
  now = 1.0;
  for (ObjectId oid = 0; oid < kStale; ++oid) {
    Tpbr<2> far = MakeMovingPoint<2>({50.0 + oid, 50}, {0, 0}, now, 900);
    ASSERT_TRUE(index.Update(oid, near[oid], far, now));
    reference.Insert(oid, far);
  }
  ASSERT_EQ(index.live_tier().owned_in_tree(), kStale);

  for (int k : {1, 10, 29, 64, 100}) {
    std::vector<ObjectId> got, want;
    index.NearestNeighbors({500, 500}, now, k, &got);
    reference.NearestNeighbors({500, 500}, now, k, &want);
    EXPECT_EQ(got, want) << "k=" << k;
  }
  ExpectVerified(index, now);
}

// The tiered k-NN asks the tree for k objects with the live tier's
// objects skipped, and the tree prunes beyond its k-th best. Against the
// oracle: objects sharing trajectories (ties broken by oid), expired
// entries, k from 1 to past the live count, first with re-reported
// objects whose stale tree copies the skip must pass over, then with
// everything migrated (the skip rejects nothing).
TEST(TieredIndex, NearestNeighborsMatchReferenceWithTiesAndExpiry) {
  MemoryPageFile file(512);
  LiveTierOptions options;
  options.migrate_age = 0.0;
  TieredIndex<2> index(SmallConfig(), &file, options);
  ReferenceIndex<2> reference;
  Rng rng(71);
  std::vector<Vec<2>> spots;
  for (int i = 0; i < 30; ++i) {
    spots.push_back({rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  auto at_spot = [&](Time now) {
    return MakeMovingPoint<2>(spots[rng.UniformInt(spots.size())], {0, 0},
                              now, now + rng.Uniform(5.0, 200.0));
  };
  std::vector<Tpbr<2>> records;
  for (ObjectId oid = 0; oid < 600; ++oid) {
    records.push_back(at_spot(0.0));
    index.Insert(oid, records.back(), 0.0);
    reference.Insert(oid, records.back());
  }
  ASSERT_EQ(index.DrainLiveTier(0.0), records.size());
  for (ObjectId oid = 0; oid < 600; oid += 3) {
    const Tpbr<2> next = at_spot(1.0);
    ASSERT_TRUE(index.Update(oid, records[oid], next, 1.0));
    ASSERT_TRUE(reference.Delete(oid, records[oid], 1.0));
    reference.Insert(oid, next);
    records[oid] = next;
  }
  ASSERT_GT(index.live_tier().owned_in_tree(), 0u);
  auto check = [&](const char* phase) {
    for (Time t : {2.0, 60.0, 150.0}) {
      std::vector<ObjectId> live;
      reference.NearestNeighbors({0, 0}, t, std::numeric_limits<int>::max(),
                                 &live);
      const int n = static_cast<int>(live.size());
      for (int iter = 0; iter < 6; ++iter) {
        const Vec<2> q = iter % 2 == 0 ? spots[rng.UniformInt(spots.size())]
                                       : Vec<2>{rng.Uniform(0, 1000),
                                                rng.Uniform(0, 1000)};
        for (int k : {1, 10, n, n + 5}) {
          std::vector<ObjectId> got, want;
          index.NearestNeighbors(q, t, k, &got);
          reference.NearestNeighbors(q, t, k, &want);
          ASSERT_EQ(got, want)
              << phase << " t=" << t << " iter " << iter << " k=" << k;
        }
      }
    }
  };
  check("owned objects with stale tree copies");
  index.DrainLiveTier(1.0);
  ASSERT_EQ(index.live_tier().owned_in_tree(), 0u);
  check("all migrated");
  ExpectVerified(index, 1.0);
}

TEST(TieredIndex, DeleteDuringMigrationDoesNotResurrect) {
  MemoryPageFile file(512);
  LiveTierOptions options;
  options.migrate_age = 0.0;  // Everything is immediately migratable.
  TieredIndex<2> index(SmallConfig(), &file, options);
  Time now = 0;
  Tpbr<2> p = MakeMovingPoint<2>({100, 100}, {0, 0}, now, 500.0);
  index.Insert(7, p, now);
  // Migrate, re-report (owned with tree copy), then delete: both the
  // live record and the stale tree copy must go.
  index.DrainLiveTier(now);
  now = 1.0;
  Tpbr<2> q = MakeMovingPoint<2>({200, 200}, {0, 0}, now, 500.0);
  ASSERT_TRUE(index.Update(7, p, q, now));
  ASSERT_TRUE(index.Delete(7, q, now));

  Query<2> everything =
      Query<2>::Timeslice(Rect<2>{{-1e9, -1e9}, {1e9, 1e9}}, now);
  std::vector<ObjectId> hits;
  index.Search(everything, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_GT(index.tree_cleanup_deletes(), 0u);
  ExpectVerified(index, now);
}

// A tree finding comes back in the report; Verify never aborts the
// process.
TEST(TieredIndex, VerifyReturnsTreeFindings) {
  MemoryPageFile file(512);
  const TreeConfig config = SmallConfig();
  TieredIndex<2> index(config, &file);
  Rng rng(0xD1A6);
  Time now = 0;
  for (ObjectId oid = 0; oid < 200; ++oid) {
    index.Insert(oid, RandomPoint<2>(&rng, now, 500.0), now);
  }
  ASSERT_GT(index.DrainLiveTier(now), 0u);
  ASSERT_TRUE(index.Commit().ok());
  ASSERT_GE(index.tree().height(), 2);
  ExpectVerified(index, now);

  // Collapse a committed internal entry's bound to a sliver in x: its
  // subtree's records escape it.
  ASSERT_TRUE(verify::EditCommittedNode<2>(
      &file, config, 1, [](Node<2>* node) {
        node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
        node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
      }));
  const verify::Report report = index.Verify(now);
  EXPECT_FALSE(report.ok());
  for (const verify::Finding& f : report.findings) {
    EXPECT_NE(f.check, verify::CheckId::kLiveTier) << f.detail;
  }
}

// --- Oracle-backed churn ----------------------------------------------

// Ground-truth leaf walk for the post-drain DAT cross-check (same check
// update_test.cc runs for the bottom-up update paths).
void CollectLeafCopies(Tree<2>* tree, PageId id, int level,
                       std::map<ObjectId, std::pair<uint32_t, PageId>>* out) {
  Node<2> node = tree->ReadNodeForTest(id);
  if (level == 0) {
    for (const NodeEntry<2>& e : node.entries) {
      auto& copies = (*out)[e.id];
      copies.first += 1;
      copies.second = id;
    }
  } else {
    for (const NodeEntry<2>& e : node.entries) {
      CollectLeafCopies(tree, e.id, level - 1, out);
    }
  }
}

void ExpectDatMatchesWalk(Tree<2>* tree) {
  std::map<ObjectId, std::pair<uint32_t, PageId>> walk;
  if (tree->root() != kInvalidPageId) {
    CollectLeafCopies(tree, tree->root(), tree->height() - 1, &walk);
  }
  std::vector<verify::DatSnapshotEntry> dat = tree->DatSnapshotForTest();
  ASSERT_EQ(dat.size(), walk.size());
  for (const verify::DatSnapshotEntry& e : dat) {
    auto it = walk.find(e.oid);
    ASSERT_NE(it, walk.end()) << "DAT tracks oid " << e.oid
                              << " absent from the leaf level";
    EXPECT_EQ(e.count, it->second.first) << "oid " << e.oid;
    if (e.leaf != kInvalidPageId) {
      EXPECT_EQ(e.leaf, it->second.second) << "oid " << e.oid;
    }
  }
}

// Draining a full live tier into an empty tree moves 5000 records in
// batches of max_batch, each one GroupUpdate that grows the root level by
// level. The drained tree must answer like the same records inserted one
// by one and like the oracle, verify clean, and keep its DAT exact — in
// both write modes.
class TieredDrain : public ::testing::TestWithParam<bool> {};

TEST_P(TieredDrain, BatchedDrainIntoEmptyTreeMatchesSingles) {
  TreeConfig config = SmallConfig();
  config.crash_consistent = GetParam();
  MemoryPageFile tiered_file(512), single_file(512);
  LiveTierOptions options;
  options.max_resident = 1 << 20;  // No pressure ticks while filling.
  TieredIndex<2> index(config, &tiered_file, options);
  Tree<2> single(config, &single_file);
  ReferenceIndex<2> reference(config.expire_entries);
  Rng rng(0xD8A1);
  const Time now = 1.0;
  for (ObjectId oid = 0; oid < 5000; ++oid) {
    // Every record outlives min_residual_life, so all of them migrate.
    const Vec<2> pos{rng.Uniform(0, testing::kSpace),
                     rng.Uniform(0, testing::kSpace)};
    const Vec<2> vel{rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    const Tpbr<2> p =
        MakeMovingPoint<2>(pos, vel, now, now + rng.Uniform(2.0, 200.0));
    index.Insert(oid, p, now);
    single.Insert(oid, p, now);
    reference.Insert(oid, p);
  }
  EXPECT_EQ(index.DrainLiveTier(now), 5000u);
  EXPECT_EQ(index.live_tier().resident(), 0u);
  EXPECT_GE(index.tree().height(), 3);
  EXPECT_EQ(index.tree().leaf_entries(), 5000u);
  for (int q = 0; q < 40; ++q) {
    const Query<2> query = RandomQuery<2>(&rng, now, 10.0, 150.0);
    std::vector<ObjectId> tiered, tree, want;
    index.Search(query, &tiered);
    single.Search(query, &tree);
    reference.Search(query, &want);
    std::sort(tiered.begin(), tiered.end());
    std::sort(tree.begin(), tree.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(tiered, want);
    ASSERT_EQ(tree, want);
    const Vec<2> point{rng.Uniform(0, testing::kSpace),
                       rng.Uniform(0, testing::kSpace)};
    std::vector<ObjectId> nn, nn_want;
    index.NearestNeighbors(point, now + 1.0, 8, &nn);
    reference.NearestNeighbors(point, now + 1.0, 8, &nn_want);
    ASSERT_EQ(nn, nn_want);
  }
  ExpectVerified(index, now);
  ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&index.tree()));
}

INSTANTIATE_TEST_SUITE_P(WriteModes, TieredDrain, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "crash_consistent"
                                             : "in_place";
                         });

// Randomized churn against the reference oracle with migration running
// synchronously every few operations. The tiered answer must be
// indistinguishable from the oracle's no matter which tier currently
// holds each record.
TEST(TieredChurn, MatchesReferenceOracle) {
  MemoryPageFile file(512);
  TreeConfig config = SmallConfig();
  LiveTierOptions options;
  options.migrate_age = 2.0;  // Short, so migration actually happens.
  options.max_batch = 32;
  TieredIndex<2> index(config, &file, options);
  ReferenceIndex<2> reference(config.expire_entries);
  Rng rng(0x71E2);

  struct LiveObj {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<LiveObj> live;
  ObjectId next_oid = 0;
  Time now = 0;
  const double max_life = 20.0;

  for (int op = 0; op < 3000; ++op) {
    now += rng.Uniform(0, 0.05);
    double roll = rng.NextDouble();
    if (roll < 0.35 || live.empty()) {
      LiveObj rec{next_oid++, RandomPoint<2>(&rng, now, max_life)};
      index.Insert(rec.oid, rec.point, now);
      reference.Insert(rec.oid, rec.point);
      live.push_back(rec);
    } else if (roll < 0.65) {
      size_t k = rng.UniformInt(live.size());
      Tpbr<2> fresh = RandomPoint<2>(&rng, now, max_life);
      bool tiered_found =
          index.Update(live[k].oid, live[k].point, fresh, now);
      bool ref_found =
          reference.Update(live[k].oid, live[k].point, fresh, now);
      // The tiered Update may optimistically report true for a deferred
      // tree-side replacement; a false is always definitive.
      if (!tiered_found) {
        EXPECT_FALSE(ref_found) << "update divergence at op " << op;
      }
      live[k].point = fresh;
    } else if (roll < 0.75) {
      size_t k = rng.UniformInt(live.size());
      bool tiered_ok = index.Delete(live[k].oid, live[k].point, now);
      bool ref_ok = reference.Delete(live[k].oid, live[k].point, now);
      ASSERT_EQ(tiered_ok, ref_ok) << "delete divergence at op " << op;
      live[k] = live.back();
      live.pop_back();
    } else if (roll < 0.95) {
      Query<2> q = RandomQuery<2>(&rng, now, 10.0, 100.0);
      std::vector<ObjectId> got, want;
      index.Search(q, &got);
      reference.Search(q, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "query divergence at op " << op;
    } else {
      Vec<2> q{rng.Uniform(0, testing::kSpace),
               rng.Uniform(0, testing::kSpace)};
      int k = 1 + static_cast<int>(rng.UniformInt(8));
      std::vector<ObjectId> got, want;
      index.NearestNeighbors(q, now, k, &got);
      reference.NearestNeighbors(q, now, k, &want);
      ASSERT_EQ(got, want) << "NN divergence at op " << op;
    }
    if (op % 37 == 36) index.MigrateTick();
    if (op % 500 == 499) {
      SCOPED_TRACE(::testing::Message() << "op " << op);
      ExpectVerified(index, now);
      reference.Vacuum(now);
    }
  }

  // Some records must actually have flowed through each path for the
  // churn to mean anything.
  const auto& stats = index.live_tier().stats();
  EXPECT_GT(stats.migrated, 0u);
  EXPECT_GT(stats.died_in_place, 0u);
  EXPECT_GT(stats.updates_absorbed, 0u);

  // Drain the tier completely: the tree alone must now agree with the
  // oracle (minus records the policy lets die in place), and the DAT
  // must mirror the leaf level exactly.
  index.DrainLiveTier(now);
  for (int i = 0; i < 20; ++i) {
    Query<2> q = RandomQuery<2>(&rng, now, 10.0, 100.0);
    std::vector<ObjectId> got, want;
    index.Search(q, &got);
    reference.Search(q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "post-drain query " << i;
  }
  ExpectVerified(index, now);
  ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&index.tree()));
}

// Calls MigrateTick from a thread of its own every `interval` until
// destroyed: migration off the report path, as a deployment would run it.
class TickThread {
 public:
  TickThread(TieredIndex<2>* index, std::chrono::microseconds interval)
      : thread_([this, index, interval] {
          while (!stop_.load(std::memory_order_relaxed)) {
            (void)index->MigrateTick();
            std::this_thread::sleep_for(interval);
          }
        }) {}
  ~TickThread() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  TickThread(const TickThread&) = delete;
  TickThread& operator=(const TickThread&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A second thread moves records between tiers underneath live
// foreground traffic; every answer must stay oracle-exact regardless of
// where each record happens to be when the query lands.
TEST(TieredConcurrency, BackgroundMigratorPreservesAnswers) {
  MemoryPageFile file(512);
  TreeConfig config = SmallConfig();
  LiveTierOptions options;
  options.migrate_age = 0.01;
  options.max_batch = 16;
  TieredIndex<2> index(config, &file, options);
  ReferenceIndex<2> reference(config.expire_entries);
  Rng rng(0xB16);
  std::optional<TickThread> ticker;
  ticker.emplace(&index, std::chrono::microseconds(1000));

  struct LiveObj {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<LiveObj> live;
  ObjectId next_oid = 0;
  Time now = 0;

  for (int op = 0; op < 2000; ++op) {
    now += rng.Uniform(0, 0.05);
    double roll = rng.NextDouble();
    if (roll < 0.4 || live.empty()) {
      LiveObj rec{next_oid++, RandomPoint<2>(&rng, now, 30.0)};
      index.Insert(rec.oid, rec.point, now);
      reference.Insert(rec.oid, rec.point);
      live.push_back(rec);
    } else if (roll < 0.7) {
      size_t k = rng.UniformInt(live.size());
      Tpbr<2> fresh = RandomPoint<2>(&rng, now, 30.0);
      (void)index.Update(live[k].oid, live[k].point, fresh, now);
      reference.Update(live[k].oid, live[k].point, fresh, now);
      live[k].point = fresh;
    } else if (roll < 0.85) {
      Query<2> q = RandomQuery<2>(&rng, now, 10.0, 100.0);
      std::vector<ObjectId> got, want;
      index.Search(q, &got);
      reference.Search(q, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << "duplicate oid in query answer at op " << op;
      ASSERT_EQ(got, want) << "query divergence at op " << op;
    } else {
      Vec<2> q{rng.Uniform(0, testing::kSpace),
               rng.Uniform(0, testing::kSpace)};
      int k = 1 + static_cast<int>(rng.UniformInt(16));
      std::vector<ObjectId> got, want;
      index.NearestNeighbors(q, now, k, &got);
      reference.NearestNeighbors(q, now, k, &want);
      std::vector<ObjectId> sorted = got;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
          << "duplicate oid in NN answer at op " << op;
      ASSERT_EQ(got, want) << "NN divergence at op " << op;
    }
  }
  ticker.reset();
  index.DrainLiveTier(now);
  ExpectVerified(index, now);
  EXPECT_GT(index.migration_batches(), 0u);
}

// Regression: migration_batches() and tree_cleanup_deletes() read
// counters that MigrateTick, running on another thread, mutates under the
// live-tier mutex, so the accessors must lock too — the old unlocked
// reads raced with MigrateTick (caught by the GUARDED_BY sweep; TSan
// flags this test on the unlocked version). Also checks the counters only
// move forward when sampled concurrently with the ticking thread.
TEST(TieredConcurrency, CounterAccessorsLocked) {
  MemoryPageFile file(512);
  TreeConfig config = SmallConfig();
  LiveTierOptions options;
  options.migrate_age = 0.0;  // Everything is immediately migratable.
  options.max_batch = 4;
  TieredIndex<2> index(config, &file, options);
  Rng rng(0xC0DE);
  std::optional<TickThread> ticker;
  ticker.emplace(&index, std::chrono::microseconds(500));

  uint64_t last_batches = 0;
  uint64_t last_cleanups = 0;
  Time now = 0;
  ObjectId next_oid = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> live;
  for (int op = 0; op < 3000; ++op) {
    now += 0.01;
    if (live.size() < 64) {
      Tpbr<2> p = RandomPoint<2>(&rng, now, 5.0);
      index.Insert(next_oid, p, now);
      live.emplace_back(next_oid++, p);
    } else {
      // Deleting an already-migrated record exercises the cleanup path
      // that bumps tree_cleanup_deletes_ under the mutex.
      auto [oid, p] = live.back();
      live.pop_back();
      (void)index.Delete(oid, p, now);
    }
    // Sample both counters while the ticking thread runs; each must be a
    // consistent (locked) read and monotone.
    const uint64_t batches = index.migration_batches();
    const uint64_t cleanups = index.tree_cleanup_deletes();
    ASSERT_GE(batches, last_batches) << "migration_batches went backwards";
    ASSERT_GE(cleanups, last_cleanups) << "tree_cleanup_deletes went backwards";
    last_batches = batches;
    last_cleanups = cleanups;
  }
  ticker.reset();
  index.DrainLiveTier(now);
  EXPECT_GT(index.migration_batches(), 0u);
  ExpectVerified(index, now);
}

}  // namespace
}  // namespace rexp
