// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the B+-tree event queue: ordering, pop-min semantics, values,
// rebalancing under churn, and agreement with a std::map reference model.

#include <cstring>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "btree/btree.h"
#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using Key = BTree::Key;

TEST(BTreeKey, OrdersByTimeThenId) {
  EXPECT_LT((Key{1.0f, 9}), (Key{2.0f, 0}));
  EXPECT_LT((Key{1.0f, 1}), (Key{1.0f, 2}));
  EXPECT_EQ((Key{1.0f, 1}), (Key{1.0f, 1}));
}

TEST(BTree, InsertPeekPop) {
  MemoryPageFile file(4096);
  BTree tree(&file, 8, 0);
  tree.Insert(Key{5.0f, 1}, nullptr);
  tree.Insert(Key{3.0f, 2}, nullptr);
  tree.Insert(Key{4.0f, 3}, nullptr);
  EXPECT_EQ(tree.size(), 3u);

  Key min;
  ASSERT_TRUE(tree.PeekMin(&min));
  EXPECT_EQ(min, (Key{3.0f, 2}));

  Key popped;
  EXPECT_FALSE(tree.PopFirstUpTo(2.0f, &popped, nullptr))
      << "nothing is due before t=3";
  ASSERT_TRUE(tree.PopFirstUpTo(3.5f, &popped, nullptr));
  EXPECT_EQ(popped, (Key{3.0f, 2}));
  ASSERT_TRUE(tree.PeekMin(&min));
  EXPECT_EQ(min, (Key{4.0f, 3}));
  EXPECT_EQ(tree.size(), 2u);
}

TEST(BTree, ValuesRoundTrip) {
  MemoryPageFile file(4096);
  const uint32_t value_size = 16;
  BTree tree(&file, 8, value_size);
  uint8_t value[value_size];
  for (uint32_t i = 0; i < 100; ++i) {
    std::memset(value, static_cast<int>(i), value_size);
    tree.Insert(Key{static_cast<float>(i % 10), i}, value);
  }
  for (uint32_t expected = 0; expected < 100; ++expected) {
    Key key;
    uint8_t got[value_size];
    ASSERT_TRUE(tree.PopFirstUpTo(100.0f, &key, got));
    // Keys come out in (t, id) order.
    uint8_t want[value_size];
    std::memset(want, static_cast<int>(key.id), value_size);
    EXPECT_EQ(std::memcmp(got, want, value_size), 0);
  }
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BTree, DeleteAbsentKeyFails) {
  MemoryPageFile file(4096);
  BTree tree(&file, 8, 0);
  tree.Insert(Key{1.0f, 1}, nullptr);
  EXPECT_FALSE(tree.Delete(Key{1.0f, 2}));
  EXPECT_TRUE(tree.Delete(Key{1.0f, 1}));
  EXPECT_FALSE(tree.Delete(Key{1.0f, 1}));
}

TEST(BTree, GrowsAndShrinksManyLevels) {
  MemoryPageFile file(256);  // Tiny pages force a tall tree.
  BTree tree(&file, 8, 0);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    tree.Insert(Key{static_cast<float>((i * 37) % 1000), static_cast<uint32_t>(i)},
                nullptr);
  }
  ExpectVerified(tree);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  uint64_t grown_pages = file.allocated_pages();
  EXPECT_GT(grown_pages, 50u);

  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Delete(
        Key{static_cast<float>((i * 37) % 1000), static_cast<uint32_t>(i)}));
  }
  ExpectVerified(tree);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_LE(file.allocated_pages(), 2u) << "pages must be reclaimed";
}

TEST(BTree, RandomChurnMatchesStdMap) {
  MemoryPageFile file(256);
  const uint32_t value_size = 8;
  BTree tree(&file, 8, value_size);
  std::map<std::pair<float, uint32_t>, uint64_t> reference;
  Rng rng(99);
  uint32_t next_id = 0;
  for (int step = 0; step < 20000; ++step) {
    double roll = rng.NextDouble();
    if (roll < 0.5 || reference.empty()) {
      float t = static_cast<float>(rng.Uniform(0, 1000));
      Key key{t, next_id++};
      uint64_t payload = rng.NextU64();
      tree.Insert(key, reinterpret_cast<const uint8_t*>(&payload));
      reference[{key.t, key.id}] = payload;
    } else if (roll < 0.8) {
      // Delete a random existing key.
      auto it = reference.begin();
      std::advance(it, rng.UniformInt(std::min<size_t>(reference.size(), 20)));
      Key key{it->first.first, it->first.second};
      ASSERT_TRUE(tree.Delete(key));
      reference.erase(it);
    } else {
      // Pop everything due before a random deadline.
      float deadline = static_cast<float>(rng.Uniform(0, 1000));
      Key key;
      uint64_t payload;
      while (tree.PopFirstUpTo(deadline, &key,
                               reinterpret_cast<uint8_t*>(&payload))) {
        auto it = reference.begin();
        ASSERT_NE(it, reference.end());
        ASSERT_EQ(key.t, it->first.first);
        ASSERT_EQ(key.id, it->first.second);
        ASSERT_EQ(payload, it->second);
        reference.erase(it);
      }
      if (!reference.empty()) {
        EXPECT_GT(reference.begin()->first.first, deadline);
      }
    }
    ASSERT_EQ(tree.size(), reference.size());
    if (step % 2000 == 1999) ExpectVerified(tree);
  }
  ExpectVerified(tree);
}

TEST(BTree, IoIsCounted) {
  MemoryPageFile file(256);
  BTree tree(&file, 4, 0);
  for (int i = 0; i < 2000; ++i) {
    tree.Insert(Key{static_cast<float>(i), static_cast<uint32_t>(i)},
                nullptr);
  }
  tree.ResetIoStats();
  // With only 4 frames, a pop must incur some I/O.
  Key key;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.PopFirstUpTo(1e9f, &key, nullptr));
  }
  EXPECT_GT(tree.io_stats().Total(), 0u);
}

TEST(BTree, VerifyIsCleanOnHealthyTree) {
  MemoryPageFile file(256);
  BTree tree(&file, 8, 0);
  Rng rng(17);
  for (uint32_t i = 0; i < 500; ++i) {
    tree.Insert(Key{static_cast<float>(rng.Uniform(0, 100)), i}, nullptr);
  }
  verify::Report report = tree.Verify();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(report.walk_complete);
  // All 500 leaf keys plus the internal routing entries above them.
  EXPECT_GE(report.entries_checked, 500u);
}

// Verify must surface logical corruption as a typed finding — the same
// schema rexp_fsck emits — instead of silently decoding it. The mutation
// goes through WritePage, which re-seals the frame checksum, so only the
// structural check can catch it.
TEST(BTree, VerifyReportsUnsortedKeysAsFinding) {
  MemoryPageFile file(256);
  BTree tree(&file, 8, 0);
  for (uint32_t i = 0; i < 500; ++i) {
    tree.Insert(Key{static_cast<float>(i), i}, nullptr);
  }
  ASSERT_TRUE(tree.Verify().ok());  // Also flushes dirty buffers.

  // Find a leaf page (level tag 0) with at least two keys and swap the
  // first pair to break the sort order.
  Page page(256);
  bool corrupted = false;
  for (PageId id = 0; id < file.capacity_pages() && !corrupted; ++id) {
    if (!file.ReadPage(id, &page).ok()) continue;
    if (page.Read<uint16_t>(0) != 0 || page.Read<uint16_t>(2) < 2) {
      continue;
    }
    const float t0 = page.Read<float>(4);
    const uint32_t id0 = page.Read<uint32_t>(8);
    page.Write<float>(4, page.Read<float>(12));
    page.Write<uint32_t>(8, page.Read<uint32_t>(16));
    page.Write<float>(12, t0);
    page.Write<uint32_t>(16, id0);
    ASSERT_TRUE(file.WritePage(id, page).ok());
    corrupted = true;
  }
  ASSERT_TRUE(corrupted) << "no leaf with two keys found";

  verify::Report report = tree.Verify();
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const verify::Finding& f : report.findings) {
    if (f.check == verify::CheckId::kNodeStructure) found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
}

// Raw rot under the checksum seal is caught as kPageChecksum and the
// walk is reported incomplete rather than aborted.
TEST(BTree, VerifyReportsRotAsPageChecksum) {
  MemoryPageFile file(256);
  BTree tree(&file, 8, 0);
  for (uint32_t i = 0; i < 500; ++i) {
    tree.Insert(Key{static_cast<float>(i), i}, nullptr);
  }
  ASSERT_TRUE(tree.Verify().ok());
  // Garble one frame below the checksum layer.
  std::vector<uint8_t> frame(file.frame_size());
  ASSERT_TRUE(file.ReadFrame(3, frame.data()).ok());
  frame[file.frame_size() / 2] ^= 0x20;
  ASSERT_TRUE(file.WriteFrame(3, frame.data()).ok());

  verify::Report report = tree.Verify();
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const verify::Finding& f : report.findings) {
    if (f.check == verify::CheckId::kPageChecksum) found = true;
  }
  EXPECT_TRUE(found) << report.ToString();
  EXPECT_FALSE(report.walk_complete);
}

}  // namespace
}  // namespace rexp
