// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the workload generator: the statistical properties the paper's
// Section 5.1 prescribes (update-interval mean, speed classes, spatial
// extent, query mix, expiration modes, population control, turn-over).

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/tree.h"
#include "workload/generator.h"
#include "workload/workload_spec.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;

WorkloadSpec SmallSpec() {
  WorkloadSpec spec;
  spec.target_objects = 2000;
  spec.total_insertions = 40000;
  spec.seed = 7;
  return spec;
}

TEST(WorkloadSpec, QueryGeometryMatchesPaper) {
  WorkloadSpec spec;
  // 0.25 % of a 1000 x 1000 km space is a 50 km square.
  EXPECT_NEAR(spec.QuerySide(), 50.0, 1e-9);
  // W = UI / 2 by default.
  EXPECT_DOUBLE_EQ(spec.QueryWindow(), 30.0);
  spec.query_window = 15.0;
  EXPECT_DOUBLE_EQ(spec.QueryWindow(), 15.0);
}

TEST(WorkloadSpec, ScalingKeepsRatios) {
  WorkloadSpec spec;
  WorkloadSpec scaled = spec.Scaled(0.1);
  EXPECT_EQ(scaled.target_objects, 10000u);
  EXPECT_EQ(scaled.total_insertions, 100000u);
  // Tiny scales are clamped to something meaningful.
  WorkloadSpec tiny = spec.Scaled(1e-6);
  EXPECT_GE(tiny.target_objects, 500u);
  EXPECT_GE(tiny.total_insertions, 10 * tiny.target_objects);
}

TEST(WorkloadGenerator, EmitsRequestedNumberOfInsertions) {
  WorkloadSpec spec = SmallSpec();
  WorkloadGenerator gen(spec);
  Operation op;
  uint64_t inserts = 0, updates = 0, queries = 0;
  Time last = 0;
  while (gen.Next(&op)) {
    EXPECT_GE(op.time, last) << "operations must be time-ordered";
    last = op.time;
    switch (op.kind) {
      case Operation::Kind::kInsert:
        ++inserts;
        break;
      case Operation::Kind::kUpdate:
        ++updates;
        break;
      case Operation::Kind::kQuery:
        ++queries;
        break;
    }
  }
  EXPECT_EQ(inserts + updates, spec.total_insertions);
  // One query per 100 insertions.
  EXPECT_NEAR(static_cast<double>(queries),
              static_cast<double>(spec.total_insertions) / 100, 5);
}

TEST(WorkloadGenerator, RecordsStayInSpaceWithBoundedSpeeds) {
  WorkloadSpec spec = SmallSpec();
  WorkloadGenerator gen(spec);
  Operation op;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kQuery) continue;
    Vec<2> pos = op.record.PointAt(op.time);
    for (int d = 0; d < 2; ++d) {
      EXPECT_GE(pos[d], -1.0);
      EXPECT_LE(pos[d], spec.space + 1.0);
      EXPECT_LE(std::abs(op.record.vlo[d]), 3.0 + 1e-6);
    }
    EXPECT_GT(op.record.t_exp, op.time);
  }
}

TEST(WorkloadGenerator, MeanUpdateIntervalApproximatesUi) {
  WorkloadSpec spec = SmallSpec();
  spec.exp_t = 1e6;  // Effectively no expiration: isolate update pacing.
  WorkloadGenerator gen(spec);
  Operation op;
  std::map<ObjectId, Time> last_report;
  double gap_sum = 0;
  uint64_t gaps = 0;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kQuery) continue;
    auto it = last_report.find(op.oid);
    if (it != last_report.end()) {
      gap_sum += op.time - it->second;
      ++gaps;
    }
    last_report[op.oid] = op.time;
  }
  ASSERT_GT(gaps, 10000u);
  double mean_gap = gap_sum / static_cast<double>(gaps);
  // The schedule targets UI = 60 on average; routes shorter than 3 UI
  // report more often, so allow a generous band.
  EXPECT_GT(mean_gap, spec.ui * 0.5);
  EXPECT_LT(mean_gap, spec.ui * 1.5);
}

TEST(WorkloadGenerator, DurationModeGivesConstantLifetime) {
  WorkloadSpec spec = SmallSpec();
  spec.exp_t = 120;
  WorkloadGenerator gen(spec);
  Operation op;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kQuery) continue;
    EXPECT_NEAR(op.record.t_exp - op.time, 120.0, 0.01);
  }
}

TEST(WorkloadGenerator, DistanceModeExpiresFastObjectsSooner) {
  WorkloadSpec spec = SmallSpec();
  spec.expiration = WorkloadSpec::Expiration::kDistance;
  spec.exp_d = 180;
  WorkloadGenerator gen(spec);
  Operation op;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kQuery) continue;
    Vec<2> v{op.record.vlo[0], op.record.vlo[1]};
    double speed = v.Norm();
    if (speed > 0.06) {
      EXPECT_NEAR(op.record.t_exp - op.time, 180.0 / speed,
                  0.02 * (180.0 / speed));
    }
    EXPECT_TRUE(IsFiniteTime(op.record.t_exp));
  }
}

TEST(WorkloadGenerator, LivePopulationHoldsNearTarget) {
  WorkloadSpec spec = SmallSpec();
  spec.exp_t = 60;  // Aggressive expiration (= UI) forces respawning.
  WorkloadGenerator gen(spec);
  Operation op;
  uint64_t samples = 0, in_band = 0;
  while (gen.Next(&op)) {
    if (op.time < 3 * spec.ui) continue;  // Warm-up.
    ++samples;
    if (gen.live_records() > spec.target_objects / 2 &&
        gen.live_records() < spec.target_objects * 3 / 2) {
      ++in_band;
    }
  }
  ASSERT_GT(samples, 0u);
  EXPECT_GT(static_cast<double>(in_band) / static_cast<double>(samples),
            0.9);
}

TEST(WorkloadGenerator, QueryMixMatchesProbabilities) {
  WorkloadSpec spec = SmallSpec();
  spec.total_insertions = 100000;
  WorkloadGenerator gen(spec);
  Operation op;
  uint64_t timeslice = 0, window = 0, moving = 0;
  while (gen.Next(&op)) {
    if (op.kind != Operation::Kind::kQuery) continue;
    switch (op.query.type) {
      case QueryType::kTimeslice:
        ++timeslice;
        break;
      case QueryType::kWindow:
        ++window;
        break;
      case QueryType::kMoving:
        ++moving;
        break;
    }
    // Temporal parts within [now, now + W].
    EXPECT_GE(op.query.t_lo, op.time - 1e-9);
    EXPECT_LE(op.query.t_hi, op.time + spec.QueryWindow() + 1e-9);
    // Spatial extent: a 50 km square.
    EXPECT_NEAR(op.query.r1.hi[0] - op.query.r1.lo[0], 50.0, 1e-6);
  }
  uint64_t total = timeslice + window + moving;
  ASSERT_GT(total, 500u);
  const double total_d = static_cast<double>(total);
  EXPECT_NEAR(static_cast<double>(timeslice) / total_d, 0.6, 0.05);
  EXPECT_NEAR(static_cast<double>(window) / total_d, 0.2, 0.05);
  EXPECT_NEAR(static_cast<double>(moving) / total_d, 0.2, 0.05);
}

TEST(WorkloadGenerator, NewObReplacesObjects) {
  WorkloadSpec spec = SmallSpec();
  spec.new_ob = 1.0;  // Replace ~100 % of the initial objects.
  WorkloadGenerator gen(spec);
  Operation op;
  uint64_t fresh_inserts = 0;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kInsert) ++fresh_inserts;
  }
  // Initial population + respawns + ~target replacements.
  EXPECT_GT(fresh_inserts, spec.target_objects + spec.target_objects / 2);
}

TEST(WorkloadGenerator, DeterministicForSameSeed) {
  WorkloadSpec spec = SmallSpec();
  spec.total_insertions = 5000;
  WorkloadGenerator a(spec), b(spec);
  Operation oa, ob;
  while (true) {
    bool ra = a.Next(&oa);
    bool rb = b.Next(&ob);
    ASSERT_EQ(ra, rb);
    if (!ra) break;
    ASSERT_EQ(oa.time, ob.time);
    ASSERT_EQ(oa.oid, ob.oid);
    ASSERT_EQ(static_cast<int>(oa.kind), static_cast<int>(ob.kind));
  }
}

// Replays a generated workload through the bottom-up Tree::Update API
// against the ReferenceIndex::Update oracle: every kUpdate drives the
// single-descent-free path on the exact workload shape the paper
// prescribes, and every query must agree with brute force.
TEST(WorkloadGenerator, ReplayDrivesTreeUpdateAgainstOracle) {
  WorkloadSpec spec = SmallSpec();
  spec.target_objects = 400;
  spec.total_insertions = 6000;
  WorkloadGenerator gen(spec);

  MemoryPageFile file(4096);
  TreeConfig config = TreeConfig::Rexp();
  Tree<2> tree(config, &file);
  ReferenceIndex<2> reference(config.expire_entries);

  Operation op;
  uint64_t updates = 0;
  Time last_time = 0;
  while (gen.Next(&op)) {
    last_time = op.time;
    switch (op.kind) {
      case Operation::Kind::kInsert:
        tree.Insert(op.oid, op.record, op.time);
        reference.Insert(op.oid, op.record);
        break;
      case Operation::Kind::kUpdate: {
        bool tree_ok =
            tree.Update(op.oid, op.old_record, op.record, op.time);
        bool ref_ok =
            reference.Update(op.oid, op.old_record, op.record, op.time);
        ASSERT_EQ(tree_ok, ref_ok)
            << "update divergence for oid " << op.oid << " at t=" << op.time;
        ++updates;
        break;
      }
      case Operation::Kind::kQuery: {
        std::vector<ObjectId> got, want;
        tree.Search(op.query, &got);
        reference.Search(op.query, &want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "query divergence at t=" << op.time;
        break;
      }
    }
  }
  ASSERT_GT(updates, 1000u);
  // The workload's re-reports land on the bottom-up path; most must be
  // served without a delete+insert fallback.
  const TreeOpStats& ops = tree.op_stats();
  EXPECT_EQ(ops.updates.load(), updates);
  EXPECT_GT(ops.update_fast.load(), ops.update_fallback.load());
  ExpectVerified(tree, last_time);
}

TEST(WorkloadGenerator, UniformModeCoversSpace) {
  WorkloadSpec spec = SmallSpec();
  spec.data = WorkloadSpec::Data::kUniform;
  WorkloadGenerator gen(spec);
  Operation op;
  double min_x = 1e9, max_x = -1e9;
  while (gen.Next(&op)) {
    if (op.kind == Operation::Kind::kQuery) continue;
    Vec<2> pos = op.record.PointAt(op.time);
    min_x = std::min(min_x, pos[0]);
    max_x = std::max(max_x, pos[0]);
  }
  EXPECT_LT(min_x, 100.0);
  EXPECT_GT(max_x, 900.0);
}

}  // namespace
}  // namespace rexp
