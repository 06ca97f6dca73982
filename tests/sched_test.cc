// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the scheduled-deletion index of paper Section 3: deletion
// events fire exactly when due, keep the primary tree free of expired
// entries, and the combination answers queries like the lazy R^exp-tree.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sched/scheduled_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

TreeConfig SmallConfig() {
  TreeConfig c = TreeConfig::Rexp();
  c.store_tpbr_expiration = true;  // The paper's scheduled variant.
  c.page_size = 512;
  c.buffer_frames = 8;
  return c;
}

TEST(ScheduledIndex, DeletionFiresWhenDue) {
  MemoryPageFile tree_file(512), queue_file(512);
  ScheduledIndex<2> index(SmallConfig(), &tree_file, &queue_file);
  auto p = MakeMovingPoint<2>({10, 10}, {0, 0}, 0, /*t_exp=*/10);
  index.Insert(1, p, 0);
  EXPECT_EQ(index.queue().size(), 1u);
  EXPECT_EQ(index.PumpDue(5.0), 0u) << "not due yet";
  EXPECT_EQ(index.PumpDue(10.0), 1u) << "due exactly at expiration";
  EXPECT_EQ(index.queue().size(), 0u);
  EXPECT_EQ(index.tree().leaf_entries(), 0u)
      << "the scheduled deletion must remove the tree entry";
}

TEST(ScheduledIndex, UpdateCancelsPendingEvent) {
  MemoryPageFile tree_file(512), queue_file(512);
  ScheduledIndex<2> index(SmallConfig(), &tree_file, &queue_file);
  auto p1 = MakeMovingPoint<2>({10, 10}, {1, 0}, 0, 10);
  index.Insert(1, p1, 0);
  // Update before expiry: delete + reinsert with a later expiration.
  ASSERT_TRUE(index.Delete(1, p1, 5));
  auto p2 = MakeMovingPoint<2>({15, 10}, {1, 0}, 5, 50);
  index.Insert(1, p2, 5);
  EXPECT_EQ(index.queue().size(), 1u) << "old event must be cancelled";
  EXPECT_EQ(index.PumpDue(20.0), 0u) << "cancelled event must not fire";
  EXPECT_EQ(index.tree().leaf_entries(), 1u);
}

TEST(ScheduledIndex, TreeStaysFreeOfExpiredEntries) {
  MemoryPageFile tree_file(512), queue_file(512);
  ScheduledIndex<2> index(SmallConfig(), &tree_file, &queue_file);
  Rng rng(3);
  Time now = 0;
  ObjectId oid = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      now += 0.05;
      index.Insert(oid++, RandomPoint<2>(&rng, now, /*max_life=*/5.0), now);
    }
    EXPECT_LT(index.tree().ExpiredLeafFraction(now).value(), 1e-9)
        << "scheduled deletions keep the tree exactly clean";
  }
  ExpectVerified(index, now);
}

TEST(ScheduledIndex, AgreesWithReferenceAcrossChurn) {
  MemoryPageFile tree_file(512), queue_file(512);
  ScheduledIndex<2> index(SmallConfig(), &tree_file, &queue_file);
  ReferenceIndex<2> reference(/*expire_entries=*/true);
  Rng rng(4);
  Time now = 0;
  struct Rec {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Rec> live;
  ObjectId next = 0;
  for (int op = 0; op < 4000; ++op) {
    now += rng.Uniform(0, 0.2);
    double roll = rng.NextDouble();
    if (roll < 0.5 || live.empty()) {
      Rec r{next++, RandomPoint<2>(&rng, now, 30.0)};
      index.Insert(r.oid, r.point, now);
      reference.Insert(r.oid, r.point);
      live.push_back(r);
    } else if (roll < 0.75) {
      size_t k = rng.UniformInt(live.size());
      // With scheduled deletions, an expired record has already been
      // deleted from the tree when its update arrives, exactly as if the
      // lazy tree had refused the delete.
      index.Delete(live[k].oid, live[k].point, now);
      reference.Delete(live[k].oid, live[k].point, now);
      live[k].point = RandomPoint<2>(&rng, now, 30.0);
      index.Insert(live[k].oid, live[k].point, now);
      reference.Insert(live[k].oid, live[k].point);
    } else {
      Query<2> q = RandomQuery<2>(&rng, now, 20.0, 150.0);
      std::vector<ObjectId> got, want;
      index.PumpDue(now);
      index.Search(q, &got);
      reference.Search(q, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "op " << op;
    }
    if (op % 500 == 499) {
      ExpectVerified(index, now);
      reference.Vacuum(now);
    }
  }
}

// One report covers both structures: damage to a queue page surfaces as
// a finding labeled "queue: ", next to the tree's (here: none).
TEST(ScheduledIndex, VerifyLabelsQueueFindings) {
  MemoryPageFile tree_file(512), queue_file(512);
  ScheduledIndex<2> index(SmallConfig(), &tree_file, &queue_file);
  Rng rng(5);
  const Time now = 0;
  for (ObjectId oid = 0; oid < 200; ++oid) {
    index.Insert(oid, RandomPoint<2>(&rng, now), now);
  }
  ExpectVerified(index, now);  // Also flushes the queue's dirty pages.

  // Give the first queue leaf (level tag 0) an impossible level tag.
  // WritePage re-seals the frame checksum, so only the structural walk
  // can catch it.
  Page page(512);
  bool damaged = false;
  for (PageId id = 0; id < queue_file.capacity_pages() && !damaged; ++id) {
    if (!queue_file.ReadPage(id, &page).ok()) continue;
    if (page.Read<uint16_t>(0) != 0) continue;
    page.Write<uint16_t>(0, 9);
    ASSERT_TRUE(queue_file.WritePage(id, page).ok());
    damaged = true;
  }
  ASSERT_TRUE(damaged) << "no queue leaf found";

  const verify::Report report = index.Verify(now);
  ASSERT_FALSE(report.ok());
  for (const verify::Finding& f : report.findings) {
    EXPECT_EQ(f.detail.rfind("queue: ", 0), 0u) << f.detail;
  }
}

TEST(ScheduledIndex, NeverExpiringRecordsSkipTheQueue) {
  MemoryPageFile tree_file(4096), queue_file(4096);
  TreeConfig config = TreeConfig::Tpr();
  ScheduledIndex<2> index(config, &tree_file, &queue_file);
  auto p = MakeMovingPoint<2>({10, 10}, {0, 0}, 0, kNeverExpires);
  index.Insert(1, p, 0);
  EXPECT_EQ(index.queue().size(), 0u);
  EXPECT_EQ(index.PumpDue(1e12), 0u);
  EXPECT_EQ(index.tree().leaf_entries(), 1u);
}

}  // namespace
}  // namespace rexp
