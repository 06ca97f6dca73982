// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Experiment harness: runs a generated workload against one index variant
// and collects the paper's metrics — average search I/O per query, average
// (tree) I/O per single insertion or deletion operation, B-tree I/O for
// the scheduled-deletion variants (reported separately, as in the paper),
// final index size in pages, and the fraction of expired entries left in
// the index by the lazy purge.

#ifndef REXP_HARNESS_EXPERIMENT_H_
#define REXP_HARNESS_EXPERIMENT_H_

#include <string>

#include "tree/tree_config.h"
#include "workload/workload_spec.h"

namespace rexp {

// An index configuration under test.
struct VariantSpec {
  std::string name;
  TreeConfig config;
  bool scheduled = false;  // Pair the tree with the B-tree deletion queue.
  bool tiered = false;     // Front the tree with the in-memory live tier.

  // The four variants of the paper's Figures 13–16.
  static VariantSpec Rexp();
  static VariantSpec Tpr();
  static VariantSpec RexpScheduled();
  static VariantSpec TprScheduled();
  // The live-tier wrapper (src/livetier/): reports absorbed in memory,
  // bulk-migrated into the tree. Migration runs synchronously inside the
  // harness (deterministic), driven by the same logical clock.
  static VariantSpec RexpTiered();
};

struct RunResult {
  std::string variant;
  uint64_t queries = 0;
  uint64_t update_ops = 0;  // Single insertions + single deletions.
  double search_io = 0;     // Avg tree I/O per query.
  double update_io = 0;     // Avg tree I/O per update op.
  double btree_io_per_op = 0;  // Avg B-tree I/O per update op (scheduled).
  uint64_t index_pages = 0;    // Tree pages in use at the end.
  double expired_fraction = 0; // Expired leaf entries remaining.
  double avg_result_size = 0;  // Avg number of objects per query answer.
  // Average number of reported objects per query whose current record does
  // not actually satisfy the query once expiration is taken into account —
  // the "false drops" the paper's Section 3 says must be filtered out of
  // TPR-tree answers. Zero for the expiration-aware variants.
  double avg_false_drops = 0;
  // Full end-of-run telemetry snapshot (MetricsRegistry::ToJson): every
  // buffer/device/ops counter, histogram, and gauge of the variant under
  // test ("tree."-prefixed; scheduled variants add "queue." and "sched.").
  std::string metrics_json;
};

// Runs the workload described by `spec` against `variant` and returns the
// collected metrics. Deterministic for fixed spec.seed.
RunResult RunExperiment(const WorkloadSpec& spec, const VariantSpec& variant);

// Reads the REXP_SCALE environment variable (default `fallback`), the
// scale knob applied to the paper-sized workloads (1.0 = 100k objects /
// 1M insertions).
double ScaleFromEnv(double fallback = 0.05);

// Reads the unsigned integer environment variable `name` (`fallback` when
// unset or empty); exits with status 2 when it is not a number.
uint64_t EnvU64(const char* name, uint64_t fallback);

}  // namespace rexp

#endif  // REXP_HARNESS_EXPERIMENT_H_
