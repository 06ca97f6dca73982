// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Randomized property tests: the tree engine must return exactly the same
// query answers as the brute-force reference index across random
// insert/update/delete/query workloads, for every dimensionality, TPBR
// strategy, and configuration flavor the paper studies — and its
// structural invariants must hold throughout.

#include <algorithm>
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

struct Flavor {
  std::string name;
  TpbrKind kind;
  bool store_expiration;
  bool ignores_expiration;
  bool expire_entries;
  bool overlap_enlargement;
  GroupingPolicy grouping = GroupingPolicy::kFollowStored;
};

std::ostream& operator<<(std::ostream& os, const Flavor& f) {
  return os << f.name;
}

const Flavor kFlavors[] = {
    {"rexp_near_optimal", TpbrKind::kNearOptimal, false, false, true, false},
    {"rexp_near_optimal_exp_recorded", TpbrKind::kNearOptimal, true, false,
     true, false},
    {"rexp_near_optimal_algs_wo_exp", TpbrKind::kNearOptimal, true, true,
     true, false},
    {"rexp_optimal", TpbrKind::kOptimal, false, false, true, false},
    {"rexp_update_minimum", TpbrKind::kUpdateMinimum, false, false, true,
     false},
    {"rexp_update_minimum_algs_wo_exp", TpbrKind::kUpdateMinimum, false,
     true, true, false},
    {"rexp_static", TpbrKind::kStatic, true, false, true, false},
    {"rexp_conservative", TpbrKind::kConservative, false, false, true,
     false},
    {"tpr", TpbrKind::kConservative, true, true, false, true},
    {"rexp_grouping_conservative", TpbrKind::kNearOptimal, false, false,
     true, false, GroupingPolicy::kConservative},
    {"rexp_grouping_update_minimum", TpbrKind::kNearOptimal, false, false,
     true, false, GroupingPolicy::kUpdateMinimum},
};

TreeConfig MakeConfig(const Flavor& f, uint32_t page_size) {
  TreeConfig c;
  c.tpbr_kind = f.kind;
  c.store_tpbr_expiration = f.store_expiration;
  c.choose_subtree_ignores_expiration = f.ignores_expiration;
  c.expire_entries = f.expire_entries;
  c.use_overlap_enlargement = f.overlap_enlargement;
  c.grouping_policy = f.grouping;
  c.page_size = page_size;
  c.buffer_frames = 16;
  c.initial_ui = 20.0;
  return c;
}

template <int kDims>
void RunWorkload(const Flavor& flavor, uint64_t seed, int ops,
                 int check_every) {
  MemoryPageFile file(512);
  TreeConfig config = MakeConfig(flavor, 512);
  Tree<kDims> tree(config, &file);
  ReferenceIndex<kDims> reference(config.expire_entries);
  Rng rng(seed);

  struct Live {
    ObjectId oid;
    Tpbr<kDims> point;
  };
  std::vector<Live> live;
  ObjectId next_oid = 0;
  Time now = 0;
  const double max_life = 40.0;

  for (int op = 0; op < ops; ++op) {
    now += rng.Uniform(0, 0.2);
    double roll = rng.NextDouble();
    if (roll < 0.5 || live.empty()) {
      // Insert a new object.
      Live rec{next_oid++, RandomPoint<kDims>(&rng, now, max_life)};
      tree.Insert(rec.oid, rec.point, now);
      reference.Insert(rec.oid, rec.point);
      live.push_back(rec);
    } else if (roll < 0.7) {
      // Update through the bottom-up API (exercising both the in-place
      // fast path and the fallback). The old record may legitimately be
      // gone if it expired (both sides must agree).
      size_t k = rng.UniformInt(live.size());
      Tpbr<kDims> fresh = RandomPoint<kDims>(&rng, now, max_life);
      bool tree_ok = tree.Update(live[k].oid, live[k].point, fresh, now);
      bool ref_ok = reference.Update(live[k].oid, live[k].point, fresh, now);
      ASSERT_EQ(tree_ok, ref_ok) << "update divergence at op " << op;
      live[k].point = fresh;
    } else if (roll < 0.8) {
      // Pure delete.
      size_t k = rng.UniformInt(live.size());
      bool tree_ok = tree.Delete(live[k].oid, live[k].point, now);
      bool ref_ok = reference.Delete(live[k].oid, live[k].point, now);
      ASSERT_EQ(tree_ok, ref_ok) << "delete divergence at op " << op;
      live[k] = live.back();
      live.pop_back();
    } else {
      // Query: answers must match the oracle exactly.
      Query<kDims> q = RandomQuery<kDims>(&rng, now, 20.0, 150.0);
      std::vector<ObjectId> got, want;
      tree.Search(q, &got);
      reference.Search(q, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "query divergence at op " << op << " (now="
                           << now << ")";
    }
    if (op % check_every == check_every - 1) {
      ExpectVerified(tree, now);
    }
  }
  ExpectVerified(tree, now);
}

class TreeVsReference : public ::testing::TestWithParam<Flavor> {};

TEST_P(TreeVsReference, TwoDimensional) {
  RunWorkload<2>(GetParam(), 0xABCD, 4000, 500);
}

TEST_P(TreeVsReference, OneDimensional) {
  RunWorkload<1>(GetParam(), 0xBCDE, 2500, 500);
}

TEST_P(TreeVsReference, ThreeDimensional) {
  RunWorkload<3>(GetParam(), 0xCDEF, 2500, 500);
}

INSTANTIATE_TEST_SUITE_P(
    AllFlavors, TreeVsReference, ::testing::ValuesIn(kFlavors),
    [](const ::testing::TestParamInfo<Flavor>& flavor_info) {
      return flavor_info.param.name;
    });

// A high-churn scenario where most objects expire before being updated:
// exercises subtree deallocation, orphan reinsertion, and root shrinkage.
TEST(TreeVsReferenceChurn, ExpiryDominatedWorkload) {
  const Flavor flavor = kFlavors[0];
  MemoryPageFile file(512);
  TreeConfig config = MakeConfig(flavor, 512);
  Tree<2> tree(config, &file);
  ReferenceIndex<2> reference(true);
  Rng rng(777);
  Time now = 0;
  std::vector<std::pair<ObjectId, Tpbr<2>>> recs;
  for (int round = 0; round < 30; ++round) {
    // Burst of insertions with very short lifetimes.
    for (int i = 0; i < 150; ++i) {
      now += 0.01;
      auto p = RandomPoint<2>(&rng, now, /*max_life=*/3.0);
      ObjectId oid = static_cast<ObjectId>(round * 1000 + i);
      tree.Insert(oid, p, now);
      reference.Insert(oid, p);
      recs.push_back({oid, p});
    }
    // Let everything expire, then trigger purging via sparse inserts.
    now += 10.0;
    for (int i = 0; i < 10; ++i) {
      now += 0.5;
      auto p = RandomPoint<2>(&rng, now, 3.0);
      ObjectId oid = static_cast<ObjectId>(round * 1000 + 500 + i);
      tree.Insert(oid, p, now);
      reference.Insert(oid, p);
    }
    Query<2> q = RandomQuery<2>(&rng, now, 5.0, 300.0);
    std::vector<ObjectId> got, want;
    tree.Search(q, &got);
    reference.Search(q, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "round " << round;
    ExpectVerified(tree, now);
    reference.Vacuum(now);
  }
  // Nearly everything has expired; the index must have stayed small.
  EXPECT_LT(tree.leaf_entries(), 800u);
}

}  // namespace
}  // namespace rexp
