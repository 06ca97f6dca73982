// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// End-to-end integration: the full generated workload (network scenario,
// scaled down) is run through every index variant of the paper's
// comparison and through the live-tier and velocity-partitioned
// front-ends, with query answers validated against the brute-force
// reference and the headline qualitative claims spot-checked.

#include <algorithm>
#include <memory>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "livetier/tiered_index.h"
#include "partition/partitioned_index.h"
#include "sched/scheduled_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/index_contract.h"
#include "tree/reference_index.h"
#include "tree/tree.h"
#include "workload/generator.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;

WorkloadSpec TinySpec() {
  WorkloadSpec spec;
  spec.target_objects = 1500;
  spec.total_insertions = 25000;
  spec.exp_t = 120;
  spec.seed = 42;
  return spec;
}

static_assert(IndexFrontEnd<Tree<2>>);
static_assert(IndexFrontEnd<ScheduledIndex<2>>);
static_assert(IndexFrontEnd<TieredIndex<2>>);
static_assert(IndexFrontEnd<PartitionedIndex<2>>);

// Runs the workload against one front-end and the reference at the same
// time, comparing every query answer, then runs the front-end's full
// verification. Per-front-end policy mirrors the harness: the scheduled
// index fires due deletions before every operation; the live tier
// migrates once per logical second; the tiered and partitioned indexes
// absorb a re-report in one Update, the others as delete + insert.
template <IndexFrontEnd Index>
void RunAgainstReference(Index& index, const TreeConfig& config) {
  constexpr bool kScheduled = std::is_same_v<Index, ScheduledIndex<2>>;
  constexpr bool kTiered = std::is_same_v<Index, TieredIndex<2>>;
  constexpr bool kPartitioned = std::is_same_v<Index, PartitionedIndex<2>>;
  ReferenceIndex<2> reference(config.expire_entries);

  WorkloadGenerator gen(TinySpec());
  Operation op;
  Time now = 0;
  Time last_migrate = 0;
  uint64_t queries = 0;
  std::vector<ObjectId> got, want;
  while (gen.Next(&op)) {
    now = op.time;
    if constexpr (kScheduled) {
      // The scheduled variants physically delete records the moment they
      // come due; mirror that in the oracle.
      index.PumpDue(now);
      reference.RemoveExpiredUpTo(now);
    }
    if constexpr (kTiered) {
      if (now - last_migrate >= 1.0) {
        last_migrate = now;
        index.MigrateTick();
      }
    }
    switch (op.kind) {
      case Operation::Kind::kInsert:
        index.Insert(op.oid, op.record, now);
        reference.Insert(op.oid, op.record);
        break;
      case Operation::Kind::kUpdate: {
        const bool ref_ok = reference.Delete(op.oid, op.old_record, now);
        reference.Insert(op.oid, op.record);
        if constexpr (kTiered) {
          // A tree-side replacement is settled at migration; its result
          // is not comparable here.
          (void)index.Update(op.oid, op.old_record, op.record, now);
        } else if constexpr (kPartitioned) {
          ASSERT_EQ(index.Update(op.oid, op.old_record, op.record, now),
                    ref_ok);
        } else {
          const bool index_ok = index.Delete(op.oid, op.old_record, now);
          // Lazy semantics: both sides agree exactly. (The scheduled
          // variant deletes expired records through the queue slightly
          // earlier, so agreement there is on query answers only.)
          if constexpr (!kScheduled) {
            ASSERT_EQ(index_ok, ref_ok);
          }
          index.Insert(op.oid, op.record, now);
        }
        break;
      }
      case Operation::Kind::kQuery: {
        got.clear();
        want.clear();
        index.Search(op.query, &got);
        reference.Search(op.query, &want);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want) << "query #" << queries;
        ++queries;
        if (queries % 50 == 0) reference.Vacuum(now);
        break;
      }
    }
  }
  EXPECT_GT(queries, 100u);
  ExpectVerified(index, now);
}

void RunTree(const TreeConfig& config) {
  MemoryPageFile file(config.page_size);
  Tree<2> tree(config, &file);
  RunAgainstReference(tree, config);
}

void RunScheduled(const TreeConfig& config) {
  MemoryPageFile tree_file(config.page_size);
  MemoryPageFile queue_file(config.page_size);
  ScheduledIndex<2> index(config, &tree_file, &queue_file);
  RunAgainstReference(index, config);
}

TEST(IntegrationWorkload, RexpMatchesReference) {
  RunTree(TreeConfig::Rexp());
}

TEST(IntegrationWorkload, TprMatchesReference) {
  RunTree(TreeConfig::Tpr());
}

TEST(IntegrationWorkload, RexpScheduledMatchesReference) {
  TreeConfig config = TreeConfig::Rexp();
  config.store_tpbr_expiration = true;
  RunScheduled(config);
}

TEST(IntegrationWorkload, TprScheduledMatchesReference) {
  RunScheduled(TreeConfig::Tpr());
}

TEST(IntegrationWorkload, RexpTieredMatchesReference) {
  const TreeConfig config = TreeConfig::Rexp();
  MemoryPageFile file(config.page_size);
  TieredIndex<2> index(config, &file);
  RunAgainstReference(index, config);
}

TEST(IntegrationWorkload, RexpPartitionedMatchesReference) {
  const TreeConfig config = TreeConfig::Rexp();
  PartitionedOptions options;
  options.partitions = 4;
  std::vector<std::unique_ptr<MemoryPageFile>> files;
  std::vector<PageFile*> raw;
  for (int i = 0; i < options.partitions; ++i) {
    files.push_back(std::make_unique<MemoryPageFile>(config.page_size));
    raw.push_back(files.back().get());
  }
  PartitionedIndex<2> index(config, raw, options);
  RunAgainstReference(index, config);
}

TEST(IntegrationHarness, ProducesPlausibleMetrics) {
  // Larger than the 50-page buffer so searches actually incur I/O.
  WorkloadSpec spec = TinySpec();
  spec.target_objects = 15000;
  spec.total_insertions = 60000;
  RunResult rexp = RunExperiment(spec, VariantSpec::Rexp());
  EXPECT_GT(rexp.queries, 100u);
  EXPECT_GT(rexp.search_io, 0.0);
  EXPECT_GT(rexp.update_io, 0.0);
  EXPECT_GT(rexp.index_pages, 10u);
  EXPECT_LT(rexp.expired_fraction, 0.2);
  EXPECT_EQ(rexp.btree_io_per_op, 0.0);

  RunResult sched = RunExperiment(spec, VariantSpec::RexpScheduled());
  EXPECT_GT(sched.btree_io_per_op, 0.0)
      << "scheduled variant must pay B-tree costs";
  EXPECT_LT(sched.expired_fraction, 1e-9);
}

TEST(IntegrationHarness, HeadlineClaimRexpBeatsTprUnderTurnover) {
  // Paper Figures 13–14: with expiring information (and more so with
  // turned-off objects) the R^exp-tree clearly outperforms the TPR-tree
  // in search I/O, and the index stays smaller (Figure 15).
  WorkloadSpec spec = TinySpec();
  spec.target_objects = 15000;
  spec.total_insertions = 60000;
  spec.exp_t = 120;
  spec.new_ob = 1.0;
  RunResult rexp = RunExperiment(spec, VariantSpec::Rexp());
  RunResult tpr = RunExperiment(spec, VariantSpec::Tpr());
  EXPECT_LT(rexp.search_io, tpr.search_io);
  EXPECT_LT(rexp.index_pages, tpr.index_pages);
}

TEST(IntegrationHarness, DeterministicAcrossRuns) {
  WorkloadSpec spec = TinySpec();
  spec.total_insertions = 8000;
  RunResult a = RunExperiment(spec, VariantSpec::Rexp());
  RunResult b = RunExperiment(spec, VariantSpec::Rexp());
  EXPECT_EQ(a.search_io, b.search_io);
  EXPECT_EQ(a.update_io, b.update_io);
  EXPECT_EQ(a.index_pages, b.index_pages);
}

}  // namespace
}  // namespace rexp
