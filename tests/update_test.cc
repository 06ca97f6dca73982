// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the bottom-up update subsystem (DESIGN.md §10): the
// open-addressing hash table and direct-access table primitives, the DAT
// invariants under churn (snapshot == full leaf walk after every
// mutation), the Update fast path and its fallback, GroupUpdate
// equivalence with sequential updates, the crash-consistent flavor, and
// DAT reconstruction on re-open.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/dat.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

// --- U32HashMap -------------------------------------------------------

TEST(U32HashMap, PutFindErase) {
  U32HashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(7), nullptr);
  map.Put(7, 70);
  map.Put(9, 90);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 70);
  EXPECT_EQ(*map.Find(9), 90);
  EXPECT_EQ(map.size(), 2u);
  map.Put(7, 71);  // Overwrite.
  EXPECT_EQ(*map.Find(7), 71);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.Erase(7));
  EXPECT_FALSE(map.Erase(7));
  EXPECT_EQ(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(9), 90);
  EXPECT_EQ(map.size(), 1u);
}

TEST(U32HashMap, FindOrInsertDefaultsOnce) {
  U32HashMap<int> map;
  int* v = map.FindOrInsert(3, 33);
  EXPECT_EQ(*v, 33);
  *v = 34;
  EXPECT_EQ(*map.FindOrInsert(3, 99), 34);
  EXPECT_EQ(map.size(), 1u);
}

TEST(U32HashMap, GrowsAndSurvivesTombstoneChurn) {
  // Insert/erase far past the initial capacity with key reuse: growth,
  // tombstone sweeps, and probe chains across collisions must all keep
  // the map exact. Mirror against std::map.
  U32HashMap<uint32_t> map;
  std::map<uint32_t, uint32_t> mirror;
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    uint32_t key = static_cast<uint32_t>(rng.UniformInt(512));
    if (rng.Bernoulli(0.6)) {
      map.Put(key, key * 3 + 1);
      mirror[key] = key * 3 + 1;
    } else {
      bool a = map.Erase(key);
      bool b = mirror.erase(key) > 0;
      ASSERT_EQ(a, b) << "erase divergence on key " << key;
    }
  }
  ASSERT_EQ(map.size(), mirror.size());
  for (const auto& [key, value] : mirror) {
    const uint32_t* got = map.Find(key);
    ASSERT_NE(got, nullptr) << "key " << key;
    EXPECT_EQ(*got, value);
  }
  size_t seen = 0;
  map.ForEach([&](uint32_t key, uint32_t value) {
    ++seen;
    auto it = mirror.find(key);
    ASSERT_NE(it, mirror.end());
    EXPECT_EQ(it->second, value);
  });
  EXPECT_EQ(seen, mirror.size());
  map.Clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);

  // Grow to 10 000 keys, erase 99% of them and insert past the tombstone
  // sweep: the swept table is sized from the live count, and no key is
  // lost across two grow -> drain -> regrow cycles.
  std::map<uint32_t, uint32_t> kept;
  uint32_t next_key = 100000;
  for (uint32_t cycle = 0; cycle < 2; ++cycle) {
    for (uint32_t key = 0; key < 10000; ++key) {
      map.Put(key, key + cycle);
      kept[key] = key + cycle;
    }
    for (uint32_t key = 0; key < 10000; ++key) {
      if (key % 100 != 0) {
        ASSERT_TRUE(map.Erase(key));
        kept.erase(key);
      }
    }
    for (int i = 0; i < 50; ++i, ++next_key) {
      map.Put(next_key, next_key);
      kept[next_key] = next_key;
    }
    ASSERT_EQ(map.size(), kept.size());
    EXPECT_LE(map.capacity(), 8 * (map.size() + 1)) << "cycle " << cycle;
    for (const auto& [key, value] : kept) {
      const uint32_t* got = map.Find(key);
      ASSERT_NE(got, nullptr) << "cycle " << cycle << " key " << key;
      EXPECT_EQ(*got, value);
    }
  }
}

// --- DirectAccessTable ------------------------------------------------

TEST(DirectAccessTable, RefCountingAndLeafTrust) {
  DirectAccessTable dat;
  EXPECT_EQ(dat.Find(5), nullptr);

  // One copy, location learned from the leaf write.
  dat.AddRef(5);
  const DatEntry* e = dat.Find(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->count, 1u);
  EXPECT_EQ(e->leaf, kInvalidPageId);
  dat.NoteLeaf(5, 17);
  EXPECT_EQ(dat.Find(5)->leaf, 17u);

  // A second copy appears (e.g. mid-reinsertion): the location can no
  // longer be trusted, and NoteLeaf must not re-pin it.
  dat.AddRef(5);
  EXPECT_EQ(dat.Find(5)->count, 2u);
  EXPECT_EQ(dat.Find(5)->leaf, kInvalidPageId);
  dat.NoteLeaf(5, 23);
  EXPECT_EQ(dat.Find(5)->leaf, kInvalidPageId);

  // Back to one copy: unknown until the next leaf write.
  dat.ReleaseRef(5);
  EXPECT_EQ(dat.Find(5)->count, 1u);
  EXPECT_EQ(dat.Find(5)->leaf, kInvalidPageId);
  dat.NoteLeaf(5, 23);
  EXPECT_EQ(dat.Find(5)->leaf, 23u);

  // Last copy removed: the id disappears entirely.
  dat.ReleaseRef(5);
  EXPECT_EQ(dat.Find(5), nullptr);
  EXPECT_EQ(dat.size(), 0u);

  // NoteLeaf for an untracked id is a no-op.
  dat.NoteLeaf(6, 9);
  EXPECT_EQ(dat.Find(6), nullptr);
}

// --- DAT-vs-walk cross check under churn ------------------------------

// Collects (copy count, containing leaf) for every object id physically
// present at the leaf level, by walking the tree through the public
// read hook.
template <int kDims>
void CollectLeafCopies(Tree<kDims>* tree, PageId id, int level,
                       std::map<ObjectId, std::pair<uint32_t, PageId>>* out) {
  Node<kDims> node = tree->ReadNodeForTest(id);
  if (level == 0) {
    for (const NodeEntry<kDims>& e : node.entries) {
      auto& copies = (*out)[e.id];
      copies.first += 1;
      copies.second = id;
    }
  } else {
    for (const NodeEntry<kDims>& e : node.entries) {
      CollectLeafCopies(tree, e.id, level - 1, out);
    }
  }
}

// Asserts the DAT snapshot equals the ground-truth leaf walk: same id
// set, matching counts, and every recorded leaf names the actual page of
// the single copy.
template <int kDims>
void ExpectDatMatchesWalk(Tree<kDims>* tree) {
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
      EXPECT_EQ(e.count, 1u) << "oid " << e.oid;
      EXPECT_EQ(e.leaf, it->second.second) << "oid " << e.oid;
    }
  }
}

struct ChurnFlavor {
  std::string name;
  bool crash_consistent;
};

std::ostream& operator<<(std::ostream& os, const ChurnFlavor& f) {
  return os << f.name;
}

class DatChurn : public ::testing::TestWithParam<ChurnFlavor> {};

// After *every* mutation — insert, bottom-up update, delete — the DAT
// must exactly mirror the physical leaf level. Runs under REXP_PARANOID
// CI legs too, where every mutation additionally replays the full
// invariant catalog (including verify::CheckId::kDatMapping).
TEST_P(DatChurn, SnapshotMatchesWalkAfterEveryMutation) {
  MemoryPageFile file(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  config.crash_consistent = GetParam().crash_consistent;
  Tree<2> tree(config, &file);
  ReferenceIndex<2> reference(config.expire_entries);
  Rng rng(0xDA7);

  struct Live {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Live> live;
  ObjectId next_oid = 0;
  Time now = 0;
  const double max_life = 30.0;
  const int ops = GetParam().crash_consistent ? 500 : 1200;

  for (int op = 0; op < ops; ++op) {
    now += rng.Uniform(0, 0.2);
    double roll = rng.NextDouble();
    if (roll < 0.45 || live.empty()) {
      Live rec{next_oid++, RandomPoint<2>(&rng, now, max_life)};
      tree.Insert(rec.oid, rec.point, now);
      reference.Insert(rec.oid, rec.point);
      live.push_back(rec);
    } else if (roll < 0.75) {
      size_t k = rng.UniformInt(live.size());
      // Mix small perturbations (likely in-place) with full teleports
      // (likely fallback) so both tiers see the cross-check.
      Tpbr<2> fresh;
      if (rng.Bernoulli(0.5)) {
        Vec<2> pos, vel;
        for (int d = 0; d < 2; ++d) {
          pos[d] = live[k].point.LoAt(d, now) + rng.Uniform(-1.0, 1.0);
          vel[d] = live[k].point.vlo[d];
        }
        fresh = MakeMovingPoint<2>(pos, vel, now,
                                   now + rng.Uniform(0.01, max_life));
      } else {
        fresh = RandomPoint<2>(&rng, now, max_life);
      }
      bool tree_ok = tree.Update(live[k].oid, live[k].point, fresh, now);
      bool ref_ok = reference.Update(live[k].oid, live[k].point, fresh, now);
      ASSERT_EQ(tree_ok, ref_ok) << "update divergence at op " << op;
      live[k].point = fresh;
    } else if (roll < 0.85) {
      size_t k = rng.UniformInt(live.size());
      bool tree_ok = tree.Delete(live[k].oid, live[k].point, now);
      bool ref_ok = reference.Delete(live[k].oid, live[k].point, now);
      ASSERT_EQ(tree_ok, ref_ok) << "delete divergence at op " << op;
      live[k] = live.back();
      live.pop_back();
    } else {
      Query<2> q = RandomQuery<2>(&rng, now, 20.0, 150.0);
      std::vector<ObjectId> got, want;
      tree.Search(q, &got);
      reference.Search(q, &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "query divergence at op " << op;
      continue;  // Queries do not mutate; skip the walk.
    }
    ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&tree)) << "op " << op;
    if (op % 200 == 199) ExpectVerified(tree, now);
  }
  ExpectVerified(tree, now);

  const TreeOpStats& ops_stats = tree.op_stats();
  EXPECT_GT(ops_stats.updates.load(), 0u);
  if (!GetParam().crash_consistent) {
    // The perturbation half of the updates must land on the in-place
    // fast path.
    EXPECT_GT(ops_stats.update_fast.load(), 0u);
  } else {
    // Copy-on-write relocates the leaf on every write, so tier 1 is
    // disabled; the propagating tier still serves covered updates.
    EXPECT_EQ(ops_stats.update_fast.load(),
              ops_stats.update_fast_propagations.load());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, DatChurn,
    ::testing::Values(ChurnFlavor{"in_place", false},
                      ChurnFlavor{"crash_consistent", true}),
    [](const ::testing::TestParamInfo<ChurnFlavor>& flavor_info) {
      return flavor_info.param.name;
    });

// --- GroupUpdate ------------------------------------------------------

// GroupUpdate must be observationally equivalent to applying the same
// requests one by one with Update, including per-request return values
// and duplicate-oid batches applied in order.
TEST(GroupUpdate, MatchesSequentialUpdates) {
  MemoryPageFile file_a(512), file_b(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  Tree<2> grouped(config, &file_a);
  Tree<2> sequential(config, &file_b);
  Rng rng(0x6E0);

  struct Live {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Live> live;
  Time now = 0;
  for (ObjectId oid = 0; oid < 600; ++oid) {
    now += 0.01;
    Tpbr<2> p = RandomPoint<2>(&rng, now, 60.0);
    grouped.Insert(oid, p, now);
    sequential.Insert(oid, p, now);
    live.push_back({oid, p});
  }

  for (int round = 0; round < 8; ++round) {
    now += 1.0;
    std::vector<Tree<2>::UpdateRequest> batch;
    for (int i = 0; i < 150; ++i) {
      size_t k = rng.UniformInt(live.size());
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = live[k].point.LoAt(d, now) + rng.Uniform(-2.0, 2.0);
        vel[d] = rng.Uniform(-3.0, 3.0);
      }
      Tpbr<2> fresh =
          MakeMovingPoint<2>(pos, vel, now, now + rng.Uniform(1.0, 60.0));
      batch.push_back({live[k].oid, live[k].point, fresh});
      // Later requests in the batch must see earlier ones' effects.
      live[k].point = fresh;
    }
    std::vector<bool> got = grouped.GroupUpdate(batch, now);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      bool want = sequential.Update(batch[i].oid, batch[i].old_record,
                                    batch[i].new_record, now);
      EXPECT_EQ(got[i], want) << "round " << round << " request " << i;
    }
    // Both trees must answer identically afterwards.
    for (int q = 0; q < 10; ++q) {
      Query<2> query = RandomQuery<2>(&rng, now, 20.0, 200.0);
      std::vector<ObjectId> a, b;
      grouped.Search(query, &a);
      sequential.Search(query, &b);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "round " << round;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&grouped));
  }
  ExpectVerified(grouped, now);
  ExpectVerified(sequential, now);
  EXPECT_GT(grouped.op_stats().group_update_batches.load(), 0u);
  // Perturbation updates on a stable population: the batched leaf pass
  // must actually coalesce (fast-path counter advanced).
  EXPECT_GT(grouped.op_stats().update_fast.load(), 0u);
}

// Adversarial batches: duplicate oids both chained (later request's old
// record is the earlier one's new record — must see its effect) and
// stale (later request repeats the original old record — its delete must
// miss and the insert still land), requests whose old record expired
// before the batch, requests for oids never inserted, and a mix of
// perturbations (fast-path candidates) and teleports (fallback) — in
// both the in-place and crash-consistent write modes. Every flavor must
// be observationally identical to sequential Update on a twin tree and
// to the reference oracle.
class GroupUpdateEdge : public ::testing::TestWithParam<ChurnFlavor> {};

TEST_P(GroupUpdateEdge, AdversarialBatchesMatchSequentialAndOracle) {
  MemoryPageFile file_a(512), file_b(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  config.crash_consistent = GetParam().crash_consistent;
  Tree<2> grouped(config, &file_a);
  Tree<2> sequential(config, &file_b);
  ReferenceIndex<2> reference(config.expire_entries);
  Rng rng(0xED6E);

  struct Live {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Live> live;
  Time now = 0;
  auto insert_all = [&](ObjectId oid, const Tpbr<2>& p) {
    grouped.Insert(oid, p, now);
    sequential.Insert(oid, p, now);
    reference.Insert(oid, p);
  };
  for (ObjectId oid = 0; oid < 300; ++oid) {
    now += 0.01;
    Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
    insert_all(oid, p);
    live.push_back({oid, p});
  }
  // A clutch of short-lived records whose old records will be expired by
  // the time the batches run.
  std::vector<Live> expired;
  for (ObjectId oid = 1000; oid < 1020; ++oid) {
    now += 0.01;
    Tpbr<2> p = RandomPoint<2>(&rng, now, 0.5);
    insert_all(oid, p);
    expired.push_back({oid, p});
  }

  ObjectId ghost_oid = 5000;  // Never inserted.
  for (int round = 0; round < 6; ++round) {
    now += 2.0;  // Past the short-lived records' expirations.
    std::vector<Tree<2>::UpdateRequest> batch;
    auto fresh_for = [&](const Tpbr<2>& old_point, bool perturb) {
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = perturb ? old_point.LoAt(d, now) + rng.Uniform(-1.0, 1.0)
                         : rng.Uniform(0, testing::kSpace);
        vel[d] = perturb ? old_point.vlo[d] : rng.Uniform(-3.0, 3.0);
      }
      return MakeMovingPoint<2>(pos, vel, now, now + rng.Uniform(1.0, 40.0));
    };
    for (int i = 0; i < 60; ++i) {
      size_t k = rng.UniformInt(live.size());
      double shape = rng.NextDouble();
      if (shape < 0.25) {
        // Chained duplicate: two requests, the second building on the
        // first's new record.
        Tpbr<2> mid = fresh_for(live[k].point, rng.Bernoulli(0.5));
        Tpbr<2> fin = fresh_for(mid, rng.Bernoulli(0.5));
        batch.push_back({live[k].oid, live[k].point, mid});
        batch.push_back({live[k].oid, mid, fin});
        live[k].point = fin;
      } else if (shape < 0.45) {
        // Stale duplicate: both requests name the original old record;
        // the second's delete misses, its insert lands, and the object
        // ends up with two records — last-write-wins is NOT silently
        // imposed, matching sequential semantics exactly.
        Tpbr<2> first = fresh_for(live[k].point, rng.Bernoulli(0.5));
        Tpbr<2> second = fresh_for(live[k].point, false);
        batch.push_back({live[k].oid, live[k].point, first});
        batch.push_back({live[k].oid, live[k].point, second});
        // Track one of the copies for future rounds; the other lingers
        // until it expires (both trees carry it identically).
        live[k].point = second;
      } else if (shape < 0.55 && !expired.empty()) {
        // Old record expired before the batch: delete must miss.
        Live& e = expired[rng.UniformInt(expired.size())];
        Tpbr<2> next = fresh_for(e.point, false);
        batch.push_back({e.oid, e.point, next});
        e.point = next;
      } else if (shape < 0.62) {
        // Never-inserted oid: pure insert-anyway.
        Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
        batch.push_back({ghost_oid, RandomPoint<2>(&rng, now - 1.0, 0.1), p});
        live.push_back({ghost_oid, p});
        ++ghost_oid;
      } else {
        // Plain single update, perturbation or teleport.
        Tpbr<2> next = fresh_for(live[k].point, rng.Bernoulli(0.6));
        batch.push_back({live[k].oid, live[k].point, next});
        live[k].point = next;
      }
    }

    std::vector<bool> got = grouped.GroupUpdate(batch, now);
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      bool want_seq = sequential.Update(batch[i].oid, batch[i].old_record,
                                        batch[i].new_record, now);
      bool want_ref = reference.Update(batch[i].oid, batch[i].old_record,
                                       batch[i].new_record, now);
      ASSERT_EQ(want_seq, want_ref)
          << "oracle/sequential divergence at round " << round << " request "
          << i;
      ASSERT_EQ(got[i], want_seq)
          << "round " << round << " request " << i << " oid "
          << batch[i].oid;
    }
    for (int q = 0; q < 12; ++q) {
      Query<2> query = RandomQuery<2>(&rng, now, 10.0, 150.0);
      std::vector<ObjectId> a, b, c;
      grouped.Search(query, &a);
      sequential.Search(query, &b);
      reference.Search(query, &c);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::sort(c.begin(), c.end());
      ASSERT_EQ(a, b) << "grouped/sequential divergence, round " << round;
      ASSERT_EQ(a, c) << "grouped/oracle divergence, round " << round;
    }
    ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&grouped)) << "round "
                                                            << round;
    ExpectVerified(grouped, now);
  }
  ExpectVerified(sequential, now);
  EXPECT_GT(grouped.op_stats().group_update_batches.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, GroupUpdateEdge,
    ::testing::Values(ChurnFlavor{"in_place", false},
                      ChurnFlavor{"crash_consistent", true}),
    [](const ::testing::TestParamInfo<ChurnFlavor>& flavor_info) {
      return flavor_info.param.name;
    });

// --- Batch against singles ----------------------------------------------

// Applies `batch` to `batched` as one GroupUpdate and request by request
// (Insert for a fresh object, Update otherwise) to `single` and to the
// oracle, then checks that every result equals the single path's, that
// Search and NN answers equal the oracle's, that the batched tree
// verifies clean, and that its DAT mirrors its leaves.
void ApplyBatchAndSingles(Tree<2>* batched, Tree<2>* single,
                          ReferenceIndex<2>* reference,
                          const std::vector<Tree<2>::UpdateRequest>& batch,
                          Time now, Rng* rng) {
  const std::vector<bool> got = batched->GroupUpdate(batch, now);
  ASSERT_EQ(got.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const Tree<2>::UpdateRequest& r = batch[i];
    bool want = true;
    if (r.has_old_record) {
      want = single->Update(r.oid, r.old_record, r.new_record, now);
      ASSERT_EQ(reference->Update(r.oid, r.old_record, r.new_record, now),
                want)
          << "oracle/single divergence at request " << i;
    } else {
      single->Insert(r.oid, r.new_record, now);
      reference->Insert(r.oid, r.new_record);
    }
    ASSERT_EQ(got[i], want) << "request " << i << " oid " << r.oid;
  }
  for (int q = 0; q < 10; ++q) {
    const Query<2> query = RandomQuery<2>(rng, now, 10.0, 150.0);
    std::vector<ObjectId> a, b, c;
    batched->Search(query, &a);
    single->Search(query, &b);
    reference->Search(query, &c);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::sort(c.begin(), c.end());
    ASSERT_EQ(a, c) << "batched/oracle search divergence";
    ASSERT_EQ(b, c) << "single/oracle search divergence";
    const Vec<2> point{rng->Uniform(0, testing::kSpace),
                       rng->Uniform(0, testing::kSpace)};
    const Time t = now + rng->Uniform(0, 5.0);
    std::vector<ObjectId> nn_batched, nn_reference;
    batched->NearestNeighbors(point, t, 8, &nn_batched);
    reference->NearestNeighbors(point, t, 8, &nn_reference);
    ASSERT_EQ(nn_batched, nn_reference) << "batched/oracle NN divergence";
  }
  const verify::Report report = batched->Verify(now);
  ASSERT_TRUE(report.ok()) << report.ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(batched));
}

class GroupUpdateBatch : public ::testing::TestWithParam<ChurnFlavor> {
 protected:
  GroupUpdateBatch()
      : batched_(Config(), &file_a_), single_(Config(), &file_b_) {}

  static TreeConfig Config() {
    TreeConfig config = TreeConfig::Rexp();
    config.page_size = 512;
    config.buffer_frames = 16;
    config.crash_consistent = GetParam().crash_consistent;
    return config;
  }

  MemoryPageFile file_a_{512}, file_b_{512};
  Tree<2> batched_, single_;
  ReferenceIndex<2> reference_{true};
};

// Random batches mixing every kind of request: fresh objects, nearby
// re-reports (in-place candidates), teleports (fallbacks), chained and
// stale duplicates of one object — including a stale pair whose later
// request alone is admissible in place — old records that expired
// before the batch, and oids never inserted.
TEST_P(GroupUpdateBatch, RandomMixesMatchSingles) {
  Rng rng(0xBA7C);
  struct Live {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Live> live, expired;
  Time now = 0;
  ObjectId next_oid = 0;
  std::vector<Tree<2>::UpdateRequest> setup;
  for (int i = 0; i < 300; ++i) {
    now += 0.01;
    const Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
    setup.push_back({next_oid, {}, p, /*has_old_record=*/false});
    live.push_back({next_oid++, p});
  }
  for (int i = 0; i < 20; ++i) {
    const Tpbr<2> p = RandomPoint<2>(&rng, now, 0.5);
    setup.push_back({next_oid, {}, p, /*has_old_record=*/false});
    expired.push_back({next_oid++, p});
  }
  ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(&batched_, &single_,
                                               &reference_, setup, now, &rng));

  ObjectId ghost_oid = 100000;  // Never inserted.
  for (int round = 0; round < 12; ++round) {
    now += 1.5;  // Past the short-lived records' expirations.
    auto next_for = [&](const Tpbr<2>& old_point, bool perturb) {
      Vec<2> pos, vel;
      for (int d = 0; d < 2; ++d) {
        pos[d] = perturb ? old_point.LoAt(d, now) + rng.Uniform(-1.0, 1.0)
                         : rng.Uniform(0, testing::kSpace);
        vel[d] = perturb ? old_point.vlo[d] : rng.Uniform(-3.0, 3.0);
      }
      return MakeMovingPoint<2>(pos, vel, now, now + rng.Uniform(1.0, 40.0));
    };
    std::vector<Tree<2>::UpdateRequest> batch;
    for (int i = 0; i < 80; ++i) {
      const size_t k = rng.UniformInt(live.size());
      const double shape = rng.NextDouble();
      if (shape < 0.2) {
        const Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
        batch.push_back({next_oid, {}, p, /*has_old_record=*/false});
        live.push_back({next_oid++, p});
      } else if (shape < 0.3) {
        // Chained: the second request replaces the first one's record.
        const Tpbr<2> mid = next_for(live[k].point, rng.Bernoulli(0.5));
        const Tpbr<2> fin = next_for(mid, rng.Bernoulli(0.5));
        batch.push_back({live[k].oid, live[k].point, mid});
        batch.push_back({live[k].oid, mid, fin});
        live[k].point = fin;
      } else if (shape < 0.4) {
        // Stale: both name the original record, so only the first finds
        // it, whichever of them is admissible in place.
        const bool first_nearby = rng.Bernoulli(0.5);
        const Tpbr<2> first = next_for(live[k].point, first_nearby);
        const Tpbr<2> second = next_for(live[k].point, !first_nearby);
        batch.push_back({live[k].oid, live[k].point, first});
        batch.push_back({live[k].oid, live[k].point, second});
        live[k].point = second;
      } else if (shape < 0.45) {
        // A fresh object re-reported in the same batch.
        const Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
        const Tpbr<2> q = next_for(p, true);
        batch.push_back({next_oid, {}, p, /*has_old_record=*/false});
        batch.push_back({next_oid, p, q});
        live.push_back({next_oid++, q});
      } else if (shape < 0.5 && !expired.empty()) {
        Live& e = expired[rng.UniformInt(expired.size())];
        const Tpbr<2> next = next_for(e.point, false);
        batch.push_back({e.oid, e.point, next});
        e.point = next;
      } else if (shape < 0.55) {
        const Tpbr<2> p = RandomPoint<2>(&rng, now, 40.0);
        batch.push_back({ghost_oid, RandomPoint<2>(&rng, now - 1.0, 0.1), p});
        live.push_back({ghost_oid++, p});
      } else {
        const Tpbr<2> next = next_for(live[k].point, rng.Bernoulli(0.7));
        batch.push_back({live[k].oid, live[k].point, next});
        live[k].point = next;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(
        &batched_, &single_, &reference_, batch, now, &rng))
        << "round " << round;
  }
  // Both halves of the batch ran: leaves rewritten in place and records
  // routed down the tree.
  EXPECT_GT(batched_.op_stats().update_fast.load(), 0u);
  EXPECT_GT(batched_.op_stats().update_fallback.load(), 0u);
}

// One batch of fresh records packed around one spot: they all route to
// one leaf, far past what a single split can absorb, and the excess goes
// through the single-record insertion path.
TEST_P(GroupUpdateBatch, OverflowPastOneSplitMatchesSingles) {
  Rng rng(0x5917);
  Time now = 1.0;
  std::vector<Tree<2>::UpdateRequest> batch;
  for (ObjectId oid = 0; oid < 200; ++oid) {
    batch.push_back({oid, {}, RandomPoint<2>(&rng, now, 60.0), false});
  }
  ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(&batched_, &single_,
                                               &reference_, batch, now, &rng));
  const uint64_t splits = batched_.op_stats().splits.load();
  batch.clear();
  now += 1.0;
  for (ObjectId oid = 1000; oid < 1150; ++oid) {
    const Vec<2> pos{500.0 + rng.Uniform(-0.5, 0.5),
                     500.0 + rng.Uniform(-0.5, 0.5)};
    const Vec<2> vel{rng.Uniform(-0.01, 0.01), rng.Uniform(-0.01, 0.01)};
    batch.push_back(
        {oid, {}, MakeMovingPoint<2>(pos, vel, now, now + 50.0), false});
  }
  ASSERT_GT(static_cast<int>(batch.size()),
            2 * batched_.codec().leaf_capacity());
  ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(&batched_, &single_,
                                               &reference_, batch, now, &rng));
  EXPECT_GT(batched_.op_stats().splits.load(), splits);
}

// Fresh records, already expired, in one batch into a tree whose every
// entry has expired. Underfull nodes then dissolve up to the root while
// orphans of internal levels are pending. With recorded expirations and
// expiry-blind insertion decisions the records also spread over several
// expired children of one node, whose entries the batch routed through
// but has yet to settle.
TEST_P(GroupUpdateBatch, ExpiredRecordsIntoAnExpiredTreeMatchSingles) {
  TreeConfig blind = Config();
  blind.store_tpbr_expiration = true;
  blind.choose_subtree_ignores_expiration = true;
  MemoryPageFile blind_a(512), blind_b(512);
  Tree<2> blind_batched(blind, &blind_a), blind_single(blind, &blind_b);
  ReferenceIndex<2> blind_reference(true);
  struct Twin {
    Tree<2>* batched;
    Tree<2>* single;
    ReferenceIndex<2>* reference;
  };
  for (const Twin& twin : {Twin{&batched_, &single_, &reference_},
                           Twin{&blind_batched, &blind_single,
                                &blind_reference}}) {
    Rng rng(0xE7B1);
    Time now = 1.0;
    std::vector<Tree<2>::UpdateRequest> batch;
    ObjectId oid = 0;
    for (; oid < 400; ++oid) {
      batch.push_back({oid, {}, RandomPoint<2>(&rng, now, 5.0), false});
    }
    ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(
        twin.batched, twin.single, twin.reference, batch, now, &rng));
    ASSERT_GE(twin.batched->height(), 3);
    now = 50.0;
    batch.clear();
    for (; oid < 500; ++oid) {
      const Vec<2> pos{rng.Uniform(0, testing::kSpace),
                       rng.Uniform(0, testing::kSpace)};
      const Vec<2> vel{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
      batch.push_back({oid, {},
                       MakeMovingPoint<2>(pos, vel, now - 5.0, now - 1.0),
                       false});
    }
    ASSERT_NO_FATAL_FAILURE(ApplyBatchAndSingles(
        twin.batched, twin.single, twin.reference, batch, now, &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, GroupUpdateBatch,
    ::testing::Values(ChurnFlavor{"in_place", false},
                      ChurnFlavor{"crash_consistent", true}),
    [](const ::testing::TestParamInfo<ChurnFlavor>& flavor_info) {
      return flavor_info.param.name;
    });

TEST(GroupUpdate, EmptyBatchIsANoOp) {
  MemoryPageFile file(512);
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 16;
  Tree<2> tree(config, &file);
  std::vector<bool> result = tree.GroupUpdate({}, 0.0);
  EXPECT_TRUE(result.empty());
  ExpectVerified(tree, 0.0);
}

// --- Update against a one-request GroupUpdate ----------------------------

// Update and GroupUpdate run one update body, so a GroupUpdate of one
// request is Update: the same result, the same page I/O and the same
// pages, in both write modes. Small pages and an 8-frame buffer make the
// read order of each tier show in the I/O count. The stream mixes every
// kind of re-report: in place (same trajectory and expiry), propagated
// (a little longer-lived), jumping (anywhere), stale (an old record the
// object no longer has) and expired-old (the old record already died).
class UpdateParity : public ::testing::TestWithParam<ChurnFlavor> {};

TEST_P(UpdateParity, OneRequestGroupUpdateIsUpdate) {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  config.crash_consistent = GetParam().crash_consistent;
  // Recorded expirations let a longer-lived record propagate in the
  // in-place mode too; a bound's natural expiry would not cover it.
  config.store_tpbr_expiration = true;
  MemoryPageFile single_file(512), group_file(512);
  Tree<2> single(config, &single_file), group(config, &group_file);
  Rng rng(0x0DD5);
  auto point = [&rng](Time now, Time t_exp) {
    const Vec<2> pos{rng.Uniform(0, 1000.0), rng.Uniform(0, 1000.0)};
    const Vec<2> vel{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    return MakeMovingPoint<2>(pos, vel, now, t_exp);
  };
  auto life = [&rng] {
    return rng.Bernoulli(0.3) ? rng.Uniform(0.5, 4.0)
                              : rng.Uniform(100.0, 300.0);
  };
  struct Obj {
    ObjectId oid;
    Tpbr<2> rec, previous;
  };
  std::vector<Obj> objs;
  Time now = 0;
  for (ObjectId oid = 0; oid < 800; ++oid) {
    now += 0.01;
    const Tpbr<2> p = point(now, now + life());
    single.Insert(oid, p, now);
    group.Insert(oid, p, now);
    objs.push_back({oid, p, p});
  }
  int misses = 0;
  for (int op = 0; op < 2500; ++op) {
    now += 0.01;
    Obj& o = objs[rng.UniformInt(objs.size())];
    const uint64_t shape = rng.UniformInt(4);
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = shape == 2 ? rng.Uniform(0, 1000.0) : o.rec.LoAt(d, now);
      vel[d] = shape == 2 ? rng.Uniform(-3, 3) : o.rec.vlo[d];
    }
    const Time t_exp = shape == 0   ? o.rec.t_exp
                       : shape == 1 ? o.rec.t_exp + rng.Uniform(0.0, 2.0)
                                    : now + life();
    const Tpbr<2> next = MakeMovingPoint<2>(pos, vel, now, t_exp);
    // One re-report in eight names the record before the current one.
    const Tpbr<2> old = rng.Bernoulli(0.125) ? o.previous : o.rec;
    const bool want = single.Update(o.oid, old, next, now);
    const std::vector<bool> got = group.GroupUpdate({{o.oid, old, next}}, now);
    ASSERT_EQ(got, std::vector<bool>{want}) << "op " << op;
    ASSERT_EQ(group.TotalIo(), single.TotalIo()) << "op " << op;
    misses += want ? 0 : 1;
    o.previous = o.rec;
    o.rec = next;
  }
  ExpectVerified(single, now);
  ExpectVerified(group, now);

  const TreeOpStats& single_ops = single.op_stats();
  const TreeOpStats& group_ops = group.op_stats();
  for (const auto& [name, counter] : TreeOpStats::kCounters) {
    if (counter == &TreeOpStats::group_update_batches) continue;
    EXPECT_EQ((group_ops.*counter).load(), (single_ops.*counter).load())
        << name;
  }
  EXPECT_EQ(single_ops.group_update_batches.load(), 0u);
  EXPECT_EQ(group_ops.group_update_batches.load(), 2500u);
  // Every tier ran, and some old records were stale or expired.
  EXPECT_GT(single_ops.update_fast_propagations.load(), 0u);
  EXPECT_GT(single_ops.update_fallback.load(), 0u);
  if (!config.crash_consistent) {
    EXPECT_GT(single_ops.update_fast.load(),
              single_ops.update_fast_propagations.load());
  }
  EXPECT_GT(misses, 0);

  ASSERT_TRUE(single.Commit().ok());
  ASSERT_TRUE(group.Commit().ok());
  EXPECT_EQ(group.TotalIo(), single.TotalIo());
  std::vector<PageId> single_pages, group_pages;
  ASSERT_TRUE(single.ForEachNode([&](PageId id, const Node<2>&) {
                      single_pages.push_back(id);
                    }).ok());
  ASSERT_TRUE(group.ForEachNode([&](PageId id, const Node<2>&) {
                     group_pages.push_back(id);
                   }).ok());
  ASSERT_EQ(group_pages, single_pages);
  Page single_page(512), group_page(512);
  for (PageId id : single_pages) {
    ASSERT_TRUE(single_file.ReadPage(id, &single_page).ok());
    ASSERT_TRUE(group_file.ReadPage(id, &group_page).ok());
    EXPECT_TRUE(std::equal(single_page.data(),
                           single_page.data() + single_page.size(),
                           group_page.data()))
        << "page " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, UpdateParity,
    ::testing::Values(ChurnFlavor{"in_place", false},
                      ChurnFlavor{"crash_consistent", true}),
    [](const ::testing::TestParamInfo<ChurnFlavor>& flavor_info) {
      return flavor_info.param.name;
    });

// --- Fast-path admission ----------------------------------------------

// A stable fleet re-reporting small position corrections — the paper's
// steady state — must be served overwhelmingly by the fast path, with
// single-digit I/O per update.
TEST(UpdateFastPath, StableWorkloadHitsInPlacePath) {
  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  Tree<2> tree(config, &file);
  Rng rng(0xFA57);
  Time now = 0;
  const int n = 2000;
  std::vector<Tpbr<2>> last(n);
  for (ObjectId oid = 0; oid < n; ++oid) {
    now += 0.001;
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = rng.Uniform(0, testing::kSpace);
      vel[d] = rng.Uniform(-3.0, 3.0);
    }
    // Fixed long lifetimes: no record expires during the run, so every
    // old record must still be found.
    last[oid] = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
    tree.Insert(oid, last[oid], now);
  }
  tree.ResetOpStats();
  const int updates = 4000;
  for (int i = 0; i < updates; ++i) {
    now += 0.001;
    ObjectId oid = static_cast<ObjectId>(rng.UniformInt(n));
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = last[oid].LoAt(d, now) + rng.Uniform(-0.5, 0.5);
      vel[d] = last[oid].vlo[d] + rng.Uniform(-0.1, 0.1);
    }
    Tpbr<2> fresh = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
    ASSERT_TRUE(tree.Update(oid, last[oid], fresh, now)) << "update " << i;
    last[oid] = fresh;
  }
  const TreeOpStats& ops = tree.op_stats();
  EXPECT_EQ(ops.updates.load(), static_cast<uint64_t>(updates));
  EXPECT_EQ(ops.update_fast.load() + ops.update_fallback.load(),
            static_cast<uint64_t>(updates));
  // "Overwhelmingly": over half on this gentle workload (in practice far
  // more; the bound is loose to stay robust across codec/page tweaks).
  EXPECT_GT(ops.update_fast.load(), static_cast<uint64_t>(updates) / 2);
  EXPECT_GT(ops.dat_hits.load(), 0u);
  ExpectVerified(tree, now);
  ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&tree));
}

// --- Rebuild on re-open -----------------------------------------------

TEST(DatRebuild, ReopenReconstructsTableFromLeafWalk) {
  std::string path = ::testing::TempDir() + "/rexp_dat_reopen.bin";
  std::remove(path.c_str());
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = 512;
  config.buffer_frames = 8;
  Rng rng(0x0DA7);
  Time now = 0;

  std::vector<verify::DatSnapshotEntry> before;
  std::vector<Tpbr<2>> records(500);
  {
    auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
    Tree<2> tree(config, file.get());
    for (ObjectId oid = 0; oid < 500; ++oid) {
      now += 0.01;
      records[oid] = RandomPoint<2>(&rng, now, 120.0);
      tree.Insert(oid, records[oid], now);
    }
    before = tree.DatSnapshotForTest();
    ASSERT_TRUE(tree.Commit().ok());
  }

  auto file = DiskPageFile::Open(path, 512, /*keep=*/true).value();
  Tree<2> tree(config, file.get());
  // Exactly the open-time rebuild, no more.
  EXPECT_EQ(tree.op_stats().dat_rebuilds.load(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectDatMatchesWalk(&tree));

  // The rebuilt table pins every single-copy object at its exact leaf —
  // identical to the table the writer had (order aside).
  std::vector<verify::DatSnapshotEntry> after = tree.DatSnapshotForTest();
  auto by_oid = [](const verify::DatSnapshotEntry& a,
                   const verify::DatSnapshotEntry& b) {
    return a.oid < b.oid;
  };
  std::sort(before.begin(), before.end(), by_oid);
  std::sort(after.begin(), after.end(), by_oid);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].oid, before[i].oid);
    EXPECT_EQ(after[i].count, before[i].count);
    EXPECT_EQ(after[i].leaf, before[i].leaf) << "oid " << after[i].oid;
  }

  // And the rebuilt table immediately serves bottom-up updates: a small
  // perturbation of a known record must resolve via the DAT.
  now += 1.0;
  ObjectId oid = 123;
  Vec<2> pos, vel;
  for (int d = 0; d < 2; ++d) {
    pos[d] = records[oid].LoAt(d, now);
    vel[d] = records[oid].vlo[d];
  }
  Tpbr<2> fresh = MakeMovingPoint<2>(pos, vel, now, now + 120.0);
  ASSERT_TRUE(tree.Update(oid, records[oid], fresh, now));
  EXPECT_EQ(tree.op_stats().dat_hits.load(), 1u);
  ExpectVerified(tree, now);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rexp
