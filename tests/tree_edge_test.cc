// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Edge-case and feature tests for the tree engine beyond the basics:
// the orphan cap (paper Section 4.3's bounded update cost), node-codec
// fan-outs across dimensionalities and its golden decoded form, delete
// mismatches, horizon persistence, and false-drop accounting in the
// harness.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "harness/experiment.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/node.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

TEST(NodeCodecDims, FanoutsAcrossDimensions) {
  // Leaf entry: 8d + 8 bytes; internal (velocities + expiry): 16d + 8.
  NodeCodec<1> d1(4096, true, true);
  EXPECT_EQ(d1.leaf_capacity(), 4092 / 16);
  EXPECT_EQ(d1.internal_capacity(), 4092 / 24);
  NodeCodec<3> d3(4096, true, true);
  EXPECT_EQ(d3.leaf_capacity(), 4092 / 32);
  EXPECT_EQ(d3.internal_capacity(), 4092 / 56);
}

TEST(NodeCodecDims, FullNodeRoundTrip) {
  NodeCodec<3> codec(512, true, false);
  Rng rng(1);
  Node<3> node;
  node.level = 0;
  for (int i = 0; i < codec.leaf_capacity(); ++i) {
    node.entries.push_back(
        NodeEntry<3>{RandomPoint<3>(&rng, 5.0), static_cast<uint32_t>(i)});
  }
  Page page(512);
  codec.Encode(node, &page);
  Node<3> decoded;
  codec.Decode(page, &decoded);
  EXPECT_EQ(decoded.entries.size(), node.entries.size());
  EXPECT_EQ(decoded.entries.back().id, node.entries.back().id);
}

// FNV-1a over the raw bytes of `value`.
template <typename T>
void HashBits(uint64_t* h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    *h ^= b;
    *h *= 0x100000001b3ULL;
  }
}

template <int kDims>
void HashEntry(uint64_t* h, const NodeEntry<kDims>& e) {
  for (int d = 0; d < kDims; ++d) {
    HashBits(h, e.region.lo[d]);
    HashBits(h, e.region.hi[d]);
    HashBits(h, e.region.vlo[d]);
    HashBits(h, e.region.vhi[d]);
  }
  HashBits(h, e.region.t_exp);
  HashBits(h, e.id);
}

// Random node pages of every layout at this dimensionality — leaf pages,
// and internal pages with velocities and expiration each stored or not —
// at counts 0, 1 and capacity. The payload is random finite floats, so
// internal velocity ranges may be inverted (a finite natural expiry) and
// ids are arbitrary bit patterns. Returns the hash of every decoded entry,
// double bit patterns included, once as Decode gives the entries and once
// as NodeView::Entry does.
template <int kDims>
std::pair<uint64_t, uint64_t> HashDecodedRandomPages(uint64_t seed) {
  constexpr uint32_t kPageSize = 512;
  Rng rng(seed);
  uint64_t h = 0xcbf29ce484222325ULL;
  uint64_t hv = h;
  for (int layout = 0; layout < 5; ++layout) {
    const bool leaf = layout == 0;
    const bool velocities = leaf || (layout - 1) / 2 == 1;
    const bool expiration = leaf || (layout - 1) % 2 == 1;
    NodeCodec<kDims> codec(kPageSize, velocities, expiration);
    const int level = leaf ? 0 : 1 + static_cast<int>(rng.UniformInt(3));
    for (int count : {0, 1, codec.Capacity(level)}) {
      Page page(kPageSize);
      page.Write<uint16_t>(0, static_cast<uint16_t>(level));
      page.Write<uint16_t>(2, static_cast<uint16_t>(count));
      for (uint32_t off = 4; off + 4 <= kPageSize; off += 4) {
        page.Write<float>(off, static_cast<float>(rng.Uniform(-1000, 1000)));
      }
      Node<kDims> node;
      codec.Decode(page, &node);
      EXPECT_EQ(node.level, level);
      EXPECT_EQ(static_cast<int>(node.entries.size()), count);
      HashBits(&h, node.level);
      for (const NodeEntry<kDims>& e : node.entries) HashEntry(&h, e);
      const NodeView<kDims> view = codec.View(page);
      EXPECT_EQ(view.level(), level);
      EXPECT_EQ(view.count(), count);
      HashBits(&hv, view.level());
      for (int i = 0; i < view.count(); ++i) HashEntry(&hv, view.Entry(i));
    }
  }
  return {h, hv};
}

// Pins the decoded form of every node layout bit for bit: Decode and
// every NodeView::Entry must widen each stored float exactly as recorded
// here (the hashes predate the view).
TEST(NodeCodecGolden, DecodedEntriesKeepTheirBits) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "golden hash recorded for x86-64 floating point";
#endif
  const auto [d1, v1] = HashDecodedRandomPages<1>(0x5107);
  const auto [d2, v2] = HashDecodedRandomPages<2>(0x5207);
  const auto [d3, v3] = HashDecodedRandomPages<3>(0x5307);
  EXPECT_EQ(d1, 0xeea79e9fa3507055ULL) << std::hex << "0x" << d1;
  EXPECT_EQ(d2, 0x0af3b2552a6ed493ULL) << std::hex << "0x" << d2;
  EXPECT_EQ(d3, 0x1d5fac39b712df22ULL) << std::hex << "0x" << d3;
  EXPECT_EQ(v1, d1);
  EXPECT_EQ(v2, d2);
  EXPECT_EQ(v3, d3);
}

TEST(TreeEdge, QueriesOnEmptyAndSingletonTrees) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Window(Rect<2>{{0, 0}, {1000, 1000}}, 0, 10), &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_FALSE(tree.Delete(1, MakeMovingPoint<2>({1, 1}, {0, 0}, 0, 10), 0));

  tree.Insert(7, MakeMovingPoint<2>({5, 5}, {0, 0}, 0, 100), 0);
  hits.clear();
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {10, 10}}, 1), &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
}

TEST(TreeEdge, DeleteRequiresExactRecordMatch) {
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  auto p = MakeMovingPoint<2>({5, 5}, {1, 1}, 0, 100);
  tree.Insert(1, p, 0);
  // Same oid, wrong record (stale parameters): must not delete.
  auto wrong = MakeMovingPoint<2>({5, 5}, {1, 1}, 0, 101);
  EXPECT_FALSE(tree.Delete(1, wrong, 0));
  auto wrong_pos = MakeMovingPoint<2>({5.5, 5}, {1, 1}, 0, 100);
  EXPECT_FALSE(tree.Delete(1, wrong_pos, 0));
  // Wrong oid, right record.
  EXPECT_FALSE(tree.Delete(2, p, 0));
  EXPECT_TRUE(tree.Delete(1, p, 0));
}

TEST(TreeEdge, DuplicateOidsCoexistAndDeleteIndividually) {
  // An expired record can coexist with its object's fresh record; both
  // are distinct entries keyed by (oid, record).
  MemoryPageFile file(4096);
  Tree<2> tree(TreeConfig::Rexp(), &file);
  auto p1 = MakeMovingPoint<2>({5, 5}, {0, 0}, 0, 100);
  auto p2 = MakeMovingPoint<2>({50, 50}, {0, 0}, 0, 100);
  tree.Insert(1, p1, 0);
  tree.Insert(1, p2, 0);
  EXPECT_EQ(tree.leaf_entries(), 2u);
  EXPECT_TRUE(tree.Delete(1, p2, 0));
  std::vector<ObjectId> hits;
  tree.Search(Query<2>::Timeslice(Rect<2>{{0, 0}, {10, 10}}, 1), &hits);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(TreeEdge, OrphanCapLeavesUnderfullNodesButKeepsAnswersExact) {
  MemoryPageFile file(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  config.max_orphans = 2;  // Absurdly small: trip the cap constantly.
  Tree<2> tree(config, &file);
  ReferenceIndex<2> reference;
  Rng rng(31);
  Time now = 0;
  // Expiry-heavy churn creates underfull nodes en masse.
  std::vector<std::pair<ObjectId, Tpbr<2>>> recs;
  ObjectId next = 0;
  for (int round = 0; round < 15; ++round) {
    for (int i = 0; i < 120; ++i) {
      now += 0.02;
      auto p = RandomPoint<2>(&rng, now, 4.0);
      tree.Insert(next, p, now);
      reference.Insert(next, p);
      ++next;
    }
    now += 6.0;  // Let most of the round expire.
    Query<2> q = RandomQuery<2>(&rng, now, 10.0, 300.0);
    std::vector<ObjectId> got, want;
    tree.Search(q, &got);
    reference.Search(q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "round " << round;
    ExpectVerified(tree, now);
    reference.Vacuum(now);
  }
  EXPECT_GT(tree.underfull_remnants(), 0u)
      << "the cap should have triggered in this workload";
}

TEST(TreeEdge, HorizonEstimatePersistsAcrossReopen) {
  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  config.initial_ui = 1.0;
  double learned;
  {
    Tree<2> tree(config, &file);
    Rng rng(32);
    Time now = 0;
    for (int i = 0; i < 2000; ++i) {
      now += 0.05;
      tree.Insert(static_cast<ObjectId>(i),
                  RandomPoint<2>(&rng, now, 1e6), now);
    }
    learned = tree.horizon().ui();
    EXPECT_GT(learned, 10.0);  // Clearly re-estimated away from 1.0.
  }
  Tree<2> reopened(config, &file);
  EXPECT_DOUBLE_EQ(reopened.horizon().ui(), learned);
}

TEST(TreeEdge, MassExpiryCollapsesViaSparseInserts) {
  // Insert a large batch with short lifetimes, let everything expire,
  // then drip a few fresh inserts: lazy purging must shrink the tree to
  // (nearly) nothing without a single explicit delete.
  MemoryPageFile file(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  Tree<2> tree(config, &file);
  Rng rng(33);
  for (int i = 0; i < 3000; ++i) {
    tree.Insert(static_cast<ObjectId>(i),
                RandomPoint<2>(&rng, 0.0, /*max_life=*/1.0), 0.0);
  }
  uint64_t peak_pages = tree.PagesUsed();
  Time now = 100.0;
  for (int i = 0; i < 40; ++i) {
    now += 1;
    tree.Insert(static_cast<ObjectId>(10000 + i),
                RandomPoint<2>(&rng, now, 5.0), now);
  }
  ExpectVerified(tree, now);
  EXPECT_LT(tree.leaf_entries(), 100u);
  EXPECT_LT(tree.PagesUsed(), peak_pages / 4);
}

class BufferSizeIndependence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BufferSizeIndependence, AnswersAndStructureIgnoreBufferSize) {
  // The buffer pool size affects only the I/O count, never the tree's
  // structure or any query answer.
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = GetParam();
  MemoryPageFile file(512);
  Tree<2> tree(config, &file);

  TreeConfig wide = config;
  wide.buffer_frames = 256;
  MemoryPageFile file_wide(512);
  Tree<2> twin(wide, &file_wide);

  Rng rng(41);
  Time now = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> recs;
  for (int op = 0; op < 2500; ++op) {
    now += 0.05;
    if (rng.Bernoulli(0.7) || recs.empty()) {
      auto p = RandomPoint<2>(&rng, now, 40.0);
      tree.Insert(static_cast<ObjectId>(op), p, now);
      twin.Insert(static_cast<ObjectId>(op), p, now);
      recs.push_back({static_cast<ObjectId>(op), p});
    } else {
      size_t k = rng.UniformInt(recs.size());
      ASSERT_EQ(tree.Delete(recs[k].first, recs[k].second, now),
                twin.Delete(recs[k].first, recs[k].second, now));
      recs[k] = recs.back();
      recs.pop_back();
    }
    if (op % 250 == 249) {
      Query<2> q = RandomQuery<2>(&rng, now, 20.0, 150.0);
      std::vector<ObjectId> a, b;
      tree.Search(q, &a);
      twin.Search(q, &b);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b);
    }
  }
  EXPECT_EQ(tree.level_counts(), twin.level_counts());
  EXPECT_EQ(tree.PagesUsed(), twin.PagesUsed());
}

INSTANTIATE_TEST_SUITE_P(Frames, BufferSizeIndependence,
                         ::testing::Values(4u, 8u, 32u));

TEST(HarnessFalseDrops, TprReportsThemRexpDoesNot) {
  WorkloadSpec spec;
  spec.target_objects = 3000;
  spec.total_insertions = 30000;
  spec.exp_t = 60;  // = UI: plenty of records expire unrefreshed.
  spec.new_ob = 0.5;
  spec.seed = 5;
  RunResult rexp = RunExperiment(spec, VariantSpec::Rexp());
  EXPECT_EQ(rexp.avg_false_drops, 0.0)
      << "the Rexp-tree never reports expired objects";
  RunResult tpr = RunExperiment(spec, VariantSpec::Tpr());
  EXPECT_GT(tpr.avg_false_drops, 0.0)
      << "the TPR-tree must report false drops on expiring workloads";
}

}  // namespace
}  // namespace rexp
