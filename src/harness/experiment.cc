// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "harness/experiment.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/parse.h"
#include "livetier/tiered_index.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sched/scheduled_index.h"
#include "storage/page_file.h"
#include "tpbr/intersect.h"
#include "tree/index_contract.h"
#include "tree/tree.h"
#include "workload/generator.h"

namespace rexp {

VariantSpec VariantSpec::Rexp() {
  return VariantSpec{"Rexp-tree", TreeConfig::Rexp(), false};
}

VariantSpec VariantSpec::Tpr() {
  return VariantSpec{"TPR-tree", TreeConfig::Tpr(), false};
}

VariantSpec VariantSpec::RexpScheduled() {
  // The paper notes this variant is "penalized by unnecessarily recording
  // expiration times" (Figure 15's size difference).
  TreeConfig config = TreeConfig::Rexp();
  config.store_tpbr_expiration = true;
  return VariantSpec{"Rexp-tree sched.del.", config, true};
}

VariantSpec VariantSpec::TprScheduled() {
  return VariantSpec{"TPR-tree sched.del.", TreeConfig::Tpr(), true};
}

VariantSpec VariantSpec::RexpTiered() {
  VariantSpec v{"Rexp-tree live-tier", TreeConfig::Rexp(), false};
  v.tiered = true;
  return v;
}

namespace {

// The tree a front-end's tracer attaches to.
template <typename Index>
Tree<2>& TreeOf(Index& index) {
  if constexpr (std::is_same_v<Index, Tree<2>>) {
    return index;
  } else {
    return index.tree();
  }
}

// The measurement loop, written once over the index contract. The
// per-front-end policies: ScheduledIndex fires the deletions due before
// each operation (update work, one op each); TieredIndex runs one
// synchronous live-tier migration step per logical second (amortized
// cost of already-counted reports: I/O but no ops) and absorbs a
// position re-report in one Update; Tree and ScheduledIndex apply it as
// the paper's delete-then-insert pair.
template <IndexFrontEnd Index>
RunResult Measure(const WorkloadSpec& spec, const VariantSpec& variant,
                  Index& index) {
  constexpr bool kScheduled = std::is_same_v<Index, ScheduledIndex<2>>;
  constexpr bool kTiered = std::is_same_v<Index, TieredIndex<2>>;

  // REXP_TRACE=<path>: append this run's per-operation JSONL trace to the
  // named file (one stream across all runs of a benchmark process).
  // REXP_TRACE_SAMPLE=<n>: keep every n-th top-level span group (point
  // events and suppressed groups cost nothing); default 1 = keep all.
  std::unique_ptr<obs::Tracer> tracer;
  if (const char* trace_path = std::getenv("REXP_TRACE");
      trace_path != nullptr && trace_path[0] != '\0') {
    auto opened = obs::Tracer::OpenFile(trace_path, /*append=*/true);
    if (opened.ok()) {
      tracer = std::move(opened).value();
      if (const char* sample = std::getenv("REXP_TRACE_SAMPLE");
          sample != nullptr && sample[0] != '\0') {
        uint64_t n = 0;
        if (ParseU64(sample, &n) && n > 0) tracer->set_span_sample(n);
      }
      TreeOf(index).set_tracer(tracer.get());
    } else {
      std::fprintf(stderr, "REXP_TRACE: %s\n",
                   opened.status().ToString().c_str());
    }
  }

  // The generator is seeded from spec.seed, so runs are fully
  // reproducible yet differ across repetitions.
  WorkloadGenerator generator(spec);

  RunResult result;
  result.variant = variant.name;
  uint64_t search_io_total = 0;
  uint64_t update_io_total = 0;
  uint64_t result_size_total = 0;
  uint64_t false_drop_total = 0;
  // Current record per object, used to detect false drops in query
  // answers (the external filter step of paper Section 3).
  std::unordered_map<ObjectId, Tpbr<2>> current_record;
  Time now = 0;
  Time last_migrate = 0;

  Operation op;
  std::vector<ObjectId> hits;
  while (generator.Next(&op)) {
    now = op.time;
    // Deferred maintenance due before this operation is update work.
    const uint64_t before_pump = index.TotalIo();
    if constexpr (kScheduled) result.update_ops += index.PumpDue(now);
    if constexpr (kTiered) {
      if (now - last_migrate >= 1.0) {
        last_migrate = now;
        index.MigrateTick();
      }
    }
    update_io_total += index.TotalIo() - before_pump;

    switch (op.kind) {
      case Operation::Kind::kInsert: {
        uint64_t before = index.TotalIo();
        index.Insert(op.oid, op.record, now);
        update_io_total += index.TotalIo() - before;
        result.update_ops += 1;
        current_record[op.oid] = op.record;
        break;
      }
      case Operation::Kind::kUpdate: {
        uint64_t before = index.TotalIo();
        if constexpr (kTiered) {
          (void)index.Update(op.oid, op.old_record, op.record, now);
        } else {
          // The delete may fail if the record expired first (the paper's
          // semantics); the insert then simply introduces the new record.
          (void)index.Delete(op.oid, op.old_record, now);
          index.Insert(op.oid, op.record, now);
        }
        update_io_total += index.TotalIo() - before;
        result.update_ops += 2;
        current_record[op.oid] = op.record;
        break;
      }
      case Operation::Kind::kQuery: {
        hits.clear();
        uint64_t before = index.TotalIo();
        index.Search(op.query, &hits);
        search_io_total += index.TotalIo() - before;
        result.queries += 1;
        result_size_total += hits.size();
        for (ObjectId oid : hits) {
          auto it = current_record.find(oid);
          if (it == current_record.end() ||
              !Intersects(it->second, op.query, it->second.t_exp)) {
            ++false_drop_total;
          }
        }
        break;
      }
    }
  }

  result.search_io = result.queries
                         ? static_cast<double>(search_io_total) /
                               static_cast<double>(result.queries)
                         : 0;
  result.update_io = result.update_ops
                         ? static_cast<double>(update_io_total) /
                               static_cast<double>(result.update_ops)
                         : 0;
  if constexpr (kScheduled) {
    const uint64_t queue_io = index.queue().io_stats().Total();
    result.btree_io_per_op =
        result.update_ops ? static_cast<double>(queue_io) /
                                static_cast<double>(result.update_ops)
                          : 0;
  }
  result.index_pages = index.PagesUsed();
  // The run's pages live in memory: no device can fail the walk.
  result.expired_fraction = index.ExpiredLeafFraction(now).value();
  result.avg_result_size =
      result.queries ? static_cast<double>(result_size_total) /
                           static_cast<double>(result.queries)
                     : 0;
  result.avg_false_drops =
      result.queries ? static_cast<double>(false_drop_total) /
                           static_cast<double>(result.queries)
                     : 0;
  obs::MetricsRegistry registry;
  index.RegisterMetrics(&registry,
                        std::is_same_v<Index, Tree<2>> ? "tree." : "");
  result.metrics_json = registry.ToJson();
  TreeOf(index).set_tracer(nullptr);
  return result;
}

}  // namespace

RunResult RunExperiment(const WorkloadSpec& spec,
                        const VariantSpec& variant) {
  MemoryPageFile tree_file(variant.config.page_size);
  if (variant.scheduled) {
    MemoryPageFile queue_file(variant.config.page_size);
    ScheduledIndex<2> index(variant.config, &tree_file, &queue_file);
    return Measure(spec, variant, index);
  }
  if (variant.tiered) {
    TieredIndex<2> index(variant.config, &tree_file);
    return Measure(spec, variant, index);
  }
  Tree<2> index(variant.config, &tree_file);
  return Measure(spec, variant, index);
}

double ScaleFromEnv(double fallback) {
  const char* env = std::getenv("REXP_SCALE");
  if (env == nullptr || env[0] == '\0') return fallback;
  double scale = 0;
  REXP_CHECK(ParsePositiveDouble(env, &scale));
  return scale;
}

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  uint64_t v = 0;
  if (!ParseU64(env, &v)) {
    std::fprintf(stderr, "%s: not a number: '%s'\n", name, env);
    std::exit(2);
  }
  return v;
}

}  // namespace rexp
