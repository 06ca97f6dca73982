// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Differential tests on the disk-backed page file: the index must behave
// identically to the memory-backed one under churn, survive close/re-open
// cycles mid-workload, and keep answering queries exactly like the
// brute-force oracle afterwards.

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

TEST(DiskPersistence, ChurnWithFullReopensMatchesOracle) {
  // The index lives in an ordinary file; between phases both the tree
  // *and* the page file are destroyed and re-opened from the path — a
  // full process-restart simulation. Structure, free-list reuse, and
  // query answers must all survive.
  std::string path = ::testing::TempDir() + "/rexp_disk_churn.bin";
  std::remove(path.c_str());
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;

  auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
  auto tree = std::make_unique<Tree<2>>(config, file.get());
  ReferenceIndex<2> oracle;
  Rng rng(81);

  struct Rec {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Rec> live;
  ObjectId next = 0;
  Time now = 0;

  for (int phase = 0; phase < 4; ++phase) {
    for (int op = 0; op < 800; ++op) {
      now += rng.Uniform(0, 0.1);
      double roll = rng.NextDouble();
      if (roll < 0.55 || live.empty()) {
        Rec r{next++, RandomPoint<2>(&rng, now, 25.0)};
        tree->Insert(r.oid, r.point, now);
        oracle.Insert(r.oid, r.point);
        live.push_back(r);
      } else if (roll < 0.8) {
        size_t k = rng.UniformInt(live.size());
        bool a = tree->Delete(live[k].oid, live[k].point, now);
        bool b = oracle.Delete(live[k].oid, live[k].point, now);
        ASSERT_EQ(a, b);
        live[k] = live.back();
        live.pop_back();
      } else {
        Query<2> q = RandomQuery<2>(&rng, now, 15.0, 200.0);
        std::vector<ObjectId> got, want;
        tree->Search(q, &got);
        oracle.Search(q, &want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "phase " << phase << " op " << op;
      }
    }
    ExpectVerified(*tree, now);
    uint64_t entries_before = tree->leaf_entries();
    // Full restart: destroy the tree (persists metadata) and the device.
    tree.reset();
    file.reset();
    file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
    tree = std::make_unique<Tree<2>>(config, file.get());
    ASSERT_EQ(tree->leaf_entries(), entries_before)
        << "reopen lost entries in phase " << phase;
    ExpectVerified(*tree, now);
  }
  std::remove(path.c_str());
}

TEST(DiskPersistence, MemoryAndDiskProduceIdenticalTrees) {
  // The page device must not influence the structure: run the same
  // operation sequence against both and compare fingerprints.
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  std::string path = ::testing::TempDir() + "/rexp_disk_twin.bin";
  std::remove(path.c_str());

  MemoryPageFile mem(512);
  auto disk = DiskPageFile::Open(path, 512).value();
  Tree<2> a(config, &mem);
  Tree<2> b(config, disk.get());
  Rng rng(82);
  Time now = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> recs;
  for (int op = 0; op < 3000; ++op) {
    now += 0.05;
    if (rng.Bernoulli(0.7) || recs.empty()) {
      auto p = RandomPoint<2>(&rng, now, 40.0);
      ObjectId oid = static_cast<ObjectId>(op);
      a.Insert(oid, p, now);
      b.Insert(oid, p, now);
      recs.push_back({oid, p});
    } else {
      size_t k = rng.UniformInt(recs.size());
      bool ra = a.Delete(recs[k].first, recs[k].second, now);
      bool rb = b.Delete(recs[k].first, recs[k].second, now);
      ASSERT_EQ(ra, rb);
      recs[k] = recs.back();
      recs.pop_back();
    }
  }
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.leaf_entries(), b.leaf_entries());
  EXPECT_EQ(a.PagesUsed(), b.PagesUsed());
  EXPECT_EQ(a.level_counts(), b.level_counts());
  ExpectVerified(a, now);
  ExpectVerified(b, now);
}

TEST(DiskPersistence, FreeListRoundTripsThroughMetadata) {
  // Deleting objects leaves free pages; the metadata commit persists the
  // free list, and a re-open must resume reuse from exactly the same
  // set of free pages instead of growing the file.
  std::string path = ::testing::TempDir() + "/rexp_disk_free_list.bin";
  std::remove(path.c_str());
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;

  auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
  auto tree = std::make_unique<Tree<2>>(config, file.get());
  Rng rng(83);
  Time now = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> recs;
  for (int i = 0; i < 600; ++i) {
    now += 0.02;
    auto p = RandomPoint<2>(&rng, now, 30.0);
    tree->Insert(static_cast<ObjectId>(i), p, now);
    recs.push_back({static_cast<ObjectId>(i), p});
  }
  // Delete most objects so subtrees dissolve and pages hit the free list.
  // (A delete may miss if the entry already expired and was purged.)
  while (recs.size() > 40) {
    size_t k = rng.UniformInt(recs.size());
    (void)tree->Delete(recs[k].first, recs[k].second, now);
    recs[k] = recs.back();
    recs.pop_back();
  }
  ExpectVerified(*tree, now);

  tree.reset();  // Commits metadata (root, height, free list).
  std::vector<PageId> want_free = file->free_list();
  std::sort(want_free.begin(), want_free.end());
  ASSERT_FALSE(want_free.empty()) << "test needs a non-empty free list";
  uint64_t want_allocated = file->allocated_pages();
  uint64_t want_capacity = file->capacity_pages();
  uint64_t want_leaked = file->leaked_pages();
  file.reset();

  file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
  tree = std::make_unique<Tree<2>>(config, file.get());
  std::vector<PageId> got_free = file->free_list();
  std::sort(got_free.begin(), got_free.end());
  EXPECT_EQ(got_free, want_free);
  EXPECT_EQ(file->allocated_pages(), want_allocated);
  EXPECT_EQ(file->capacity_pages(), want_capacity);
  EXPECT_EQ(file->leaked_pages(), want_leaked);
  ExpectVerified(*tree, now);

  // New allocations must reuse the persisted free list before growing.
  for (int i = 0; i < 200; ++i) {
    now += 0.02;
    auto p = RandomPoint<2>(&rng, now, 30.0);
    tree->Insert(static_cast<ObjectId>(10000 + i), p, now);
    if (file->capacity_pages() > want_capacity) break;
  }
  // Reuse comes first; the loop stops at the first growth, so capacity can
  // exceed the old one only by the handful of pages a single insert (split
  // chain) allocates.
  EXPECT_LE(file->capacity_pages(), want_capacity + 8)
      << "re-opened file grew before consuming its persisted free list";
  tree.reset();
  file.reset();
  std::remove(path.c_str());
}

// A tree that is only opened, queried, verified and closed writes
// nothing: the destructor commits only after a mutation, so reading an
// index (as inspect_index does) leaves its file byte-identical.
TEST(DiskPersistence, ReadOnlyReopenLeavesFileByteIdentical) {
  std::string path = ::testing::TempDir() + "/rexp_disk_read_only.bin";
  std::remove(path.c_str());
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  Rng rng(84);
  const Time now = 1.0;
  {
    auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
    Tree<2> tree(config, file.get());
    for (ObjectId oid = 0; oid < 300; ++oid) {
      tree.Insert(oid, RandomPoint<2>(&rng, 0.0, 60.0), 0.0);
    }
    ASSERT_TRUE(tree.Commit().ok());
  }
  const std::vector<char> committed = ReadBytes(path);
  ASSERT_FALSE(committed.empty());

  for (int reopen = 0; reopen < 2; ++reopen) {
    auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
    auto tree = Tree<2>::Open(config, file.get()).value();
    std::vector<ObjectId> hits;
    tree->Search(RandomQuery<2>(&rng, now), &hits);
    std::vector<Tree<2>::NnResult> neighbors;
    tree->NearestNeighbors({500, 500}, now, 8, &neighbors);
    EXPECT_EQ(neighbors.size(), 8u);
    EXPECT_TRUE(tree->Verify(now).ok());
    EXPECT_GE(tree->ExpiredLeafFraction(now), 0.0);
    tree.reset();
    file.reset();
    EXPECT_EQ(ReadBytes(path), committed) << "reopen " << reopen;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rexp
