// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Velocity-partitioned index benchmark: the PartitionedIndex family
// (K speed-class trees behind one router, src/partition/) against a
// single R^exp-tree on three workloads —
//
//   fig13    the paper's Figure 13 standard point (network data,
//            distance expiration ExpD = 180),
//   uniform  the uniform scenario (speeds Uniform(0, 3)),
//   bimodal  the partitioning design case: the network scenario with an
//            adversarial speed mix (most objects crawl at 0.1 km/min, a
//            third race at 6) whose velocity spread makes a single
//            tree's TPBRs balloon.
//
// Each (workload, variant) pair replays the identical seeded operation
// stream; search and update page I/O are functions of the seed, wall
// clock is informational. Exported as BENCH_partition.json with
// per-class sub-tables in each partitioned run plus a "gates" array of
// absolute acceptance bounds ({name, value, max|min}) that
// scripts/bench_compare.py enforces on the fresh artifact:
// at K >= 2 the partitioned search I/O must be strictly below the
// single tree's on the bimodal workload, with update work — logical
// page touches (buffer hits + misses), the seed-deterministic,
// buffer-size-independent throughput proxy — within 10%. Wall-clock
// updates_per_sec is exported for information only.
// REXP_SCALE / REXP_BENCH_DIR as for the figure benchmarks.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/fig_common.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tree/index_contract.h"
#include "tree/tree.h"
#include "workload/generator.h"

namespace rexp {
namespace {

struct ClassRow {
  int cls = 0;
  double upper = 0;  // Inclusive speed bound (inf for the last class).
  uint64_t population = 0;
  uint64_t pages = 0;
  uint64_t io = 0;
};

struct Run {
  std::string workload;
  std::string variant;
  int k = 0;  // 0 = single tree.
  double search_io = 0;
  double update_io = 0;
  // Logical page touches (buffer hits + misses) per update op: the
  // buffer-size-independent, seed-deterministic work proxy the update
  // gate compares (wall clock is informational — shared runners).
  double update_touches = 0;
  uint64_t queries = 0;
  uint64_t update_ops = 0;
  uint64_t index_pages = 0;
  double expired_fraction = 0;
  double update_seconds = 0;
  double updates_per_sec = 0;
  // Partitioned-only router telemetry (zero for the single tree).
  uint64_t migrations = 0;
  uint64_t retunes = 0;
  uint64_t merges = 0;
  uint64_t partitions_searched = 0;
  std::vector<ClassRow> classes;
};

// Logical page touches (buffer hits + misses) across the index's trees.
uint64_t Touches(const Tree<2>& tree) {
  return tree.io_stats().hits.load(std::memory_order_relaxed) +
         tree.io_stats().misses.load(std::memory_order_relaxed);
}
uint64_t Touches(const PartitionedIndex<2>& part) {
  uint64_t total = 0;
  for (int i = 0; i < part.partitions(); ++i) total += Touches(part.tree(i));
  return total;
}

// Replays the generator stream into a Tree<2> or PartitionedIndex<2>; a
// position re-report is one Update (the partitioned index's same-class
// fast path).
template <IndexFrontEnd Index>
void Drive(WorkloadGenerator* gen, Index* index, Run* run) {
  uint64_t search_io_total = 0;
  uint64_t update_io_total = 0;
  uint64_t update_touch_total = 0;
  Operation op;
  std::vector<ObjectId> hits;
  Time now = 0;
  while (gen->Next(&op)) {
    now = op.time;
    switch (op.kind) {
      case Operation::Kind::kInsert: {
        const uint64_t before = index->TotalIo();
        const uint64_t touches_before = Touches(*index);
        const auto t0 = std::chrono::steady_clock::now();
        index->Insert(op.oid, op.record, now);
        run->update_seconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        update_io_total += index->TotalIo() - before;
        update_touch_total += Touches(*index) - touches_before;
        run->update_ops += 1;
        break;
      }
      case Operation::Kind::kUpdate: {
        const uint64_t before = index->TotalIo();
        const uint64_t touches_before = Touches(*index);
        const auto t0 = std::chrono::steady_clock::now();
        (void)index->Update(op.oid, op.old_record, op.record, now);
        run->update_seconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        update_io_total += index->TotalIo() - before;
        update_touch_total += Touches(*index) - touches_before;
        run->update_ops += 2;  // The paper's delete + insert pair.
        break;
      }
      case Operation::Kind::kQuery: {
        hits.clear();
        const uint64_t before = index->TotalIo();
        index->Search(op.query, &hits);
        search_io_total += index->TotalIo() - before;
        run->queries += 1;
        break;
      }
    }
  }
  run->search_io = run->queries ? static_cast<double>(search_io_total) /
                                      static_cast<double>(run->queries)
                                : 0;
  run->update_io = run->update_ops
                       ? static_cast<double>(update_io_total) /
                             static_cast<double>(run->update_ops)
                       : 0;
  run->update_touches = run->update_ops
                            ? static_cast<double>(update_touch_total) /
                                  static_cast<double>(run->update_ops)
                            : 0;
  run->updates_per_sec =
      run->update_seconds > 0
          ? static_cast<double>(run->update_ops) / run->update_seconds
          : 0;
  run->index_pages = index->PagesUsed();
  run->expired_fraction = index->ExpiredLeafFraction(now);
}

Run RunOne(const std::string& workload, const WorkloadSpec& spec,
           const TreeConfig& config, int k) {
  Run run;
  run.workload = workload;
  run.k = k;
  WorkloadGenerator gen(spec);
  if (k == 0) {
    run.variant = "single";
    MemoryPageFile file(config.page_size);
    Tree<2> tree(config, &file);
    Drive(&gen, &tree, &run);
    return run;
  }
  run.variant = "part-K" + std::to_string(k);
  // Split the single tree's buffer budget across the classes so the
  // comparison measures partitioning, not K extra buffer pools. The
  // 4-frame floor (TreeConfig's minimum) leaves large K slightly
  // over-buffered at small scales; the dominant effect — slow classes
  // whose TPBRs barely grow — is buffer-independent.
  TreeConfig per_class = config;
  per_class.buffer_frames = std::max<uint32_t>(
      4, config.buffer_frames / static_cast<uint32_t>(k));
  std::vector<std::unique_ptr<MemoryPageFile>> files;
  std::vector<PageFile*> raw;
  for (int i = 0; i < k; ++i) {
    files.push_back(std::make_unique<MemoryPageFile>(config.page_size));
    raw.push_back(files.back().get());
  }
  PartitionedOptions options;
  options.partitions = k;
  PartitionedIndex<2> part(per_class, raw, options);
  Drive(&gen, &part, &run);

  const PartitionedIndex<2>::Stats stats = part.stats();
  run.migrations = stats.migrations;
  run.retunes = stats.retunes;
  run.merges = stats.merges;
  run.partitions_searched = stats.partitions_searched;
  for (const auto& [cls, upper] : part.RoutingTableForTest()) {
    ClassRow row;
    row.cls = cls;
    row.upper = upper;
    row.population = part.tree(cls)->leaf_entries();
    row.pages = part.tree(cls)->PagesUsed();
    row.io = part.tree(cls)->io_stats().Total();
    run.classes.push_back(row);
  }
  return run;
}

struct Gate {
  std::string name;
  double value = 0;
  double bound = 0;
  bool is_max = true;  // value must be <= bound (else >= bound).
  bool Ok() const { return is_max ? value <= bound : value >= bound; }
};

int Main() {
  using namespace rexp::bench;
  obs::telemetry::SetEnabled(false);
  FigureContext ctx = MakeContext();
  PrintHeader("partition",
              "Velocity-partitioned index family vs a single R^exp-tree",
              ctx);

  struct Case {
    std::string name;
    WorkloadSpec spec;
  };
  std::vector<Case> cases;
  {
    WorkloadSpec spec = ctx.base;
    spec.expiration = WorkloadSpec::Expiration::kDistance;
    spec.exp_d = 180.0;
    cases.push_back(Case{"fig13", spec});
  }
  {
    WorkloadSpec spec = ctx.base;
    spec.data = WorkloadSpec::Data::kUniform;
    cases.push_back(Case{"uniform", spec});
  }
  {
    // The adversarial mix: two slow classes and one fast one, a 60x
    // velocity spread inside every mixed tree node.
    WorkloadSpec spec = ctx.base;
    spec.max_speeds[0] = 0.1;
    spec.max_speeds[1] = 0.1;
    spec.max_speeds[2] = 6.0;
    cases.push_back(Case{"bimodal", spec});
  }

  const std::vector<int> ks = {0, 1, 2, 4, 8};
  const TreeConfig config = ScaleVariant(VariantSpec::Rexp(), ctx.scale).config;

  std::vector<std::string> series;
  for (const Case& c : cases) series.push_back(c.name);
  TablePrinter search_table(
      "Partitioned search I/O per query (K = 0: single tree)", "K", series);
  TablePrinter update_table(
      "Partitioned update I/O per op (K = 0: single tree)", "K", series);

  std::vector<Run> runs;
  for (int k : ks) {
    std::vector<double> search_row;
    std::vector<double> update_row;
    for (const Case& c : cases) {
      Run run = RunOne(c.name, c.spec, config, k);
      search_row.push_back(run.search_io);
      update_row.push_back(run.update_io);
      runs.push_back(std::move(run));
    }
    search_table.AddRow(k, search_row);
    update_table.AddRow(k, update_row);
  }
  search_table.Print();
  update_table.Print();

  // Acceptance gates, evaluated against the single-tree run of the
  // adversarial workload (bench header comment).
  auto find_run = [&](const std::string& workload, int k) -> const Run& {
    for (const Run& r : runs) {
      if (r.workload == workload && r.k == k) return r;
    }
    std::fprintf(stderr, "missing run %s K=%d\n", workload.c_str(), k);
    std::abort();
  };
  const Run& bimodal_single = find_run("bimodal", 0);
  std::vector<Gate> gates;
  for (int k : {2, 4, 8}) {
    const Run& r = find_run("bimodal", k);
    Gate search_gate;
    search_gate.name = "bimodal_k" + std::to_string(k) + "_search_io_ratio";
    search_gate.value = bimodal_single.search_io > 0
                            ? r.search_io / bimodal_single.search_io
                            : 0;
    search_gate.bound = 0.999;  // Strictly below the single tree.
    gates.push_back(search_gate);
    // The update-work gate covers the practical operating points: at
    // bench scales K = 8 leaves a few hundred objects per class, so
    // boundary-crossing migrations dominate its update cost.
    if (k > 4) continue;
    Gate update_gate;
    update_gate.name =
        "bimodal_k" + std::to_string(k) + "_update_touch_ratio";
    update_gate.value = bimodal_single.update_touches > 0
                            ? r.update_touches / bimodal_single.update_touches
                            : 0;
    update_gate.bound = 1.10;  // Update work within 10%.
    gates.push_back(update_gate);
  }
  bool gates_ok = true;
  for (const Gate& g : gates) {
    std::printf("gate %-32s %8.4f %s %.3f  %s\n", g.name.c_str(), g.value,
                g.is_max ? "<=" : ">=", g.bound, g.Ok() ? "ok" : "FAIL");
    gates_ok = gates_ok && g.Ok();
  }
  std::fflush(stdout);

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", "partition");
  w.KV("scale", ctx.scale);
  w.Key("tables").BeginArray();
  for (const TablePrinter* table : {&search_table, &update_table}) {
    w.BeginObject();
    w.KV("title", table->title());
    w.KV("x_label", table->x_label());
    w.Key("series").BeginArray();
    for (const std::string& s : table->series()) w.Value(s);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const TablePrinter::Row& row : table->rows()) {
      w.BeginObject();
      w.KV("x", row.x);
      w.Key("values").BeginArray();
      for (double v : row.values) w.Value(v);
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.Key("runs").BeginArray();
  for (const Run& run : runs) {
    w.BeginObject();
    w.KV("workload", run.workload);
    w.KV("variant", run.variant);
    w.KV("k", static_cast<int64_t>(run.k));
    w.KV("search_io", run.search_io);
    w.KV("update_io", run.update_io);
    w.KV("update_touches", run.update_touches);
    w.KV("queries", run.queries);
    w.KV("update_ops", run.update_ops);
    w.KV("index_pages", run.index_pages);
    w.KV("expired_fraction", run.expired_fraction);
    w.KV("update_seconds", run.update_seconds);
    w.KV("updates_per_sec", run.updates_per_sec);
    if (run.k > 0) {
      w.KV("migrations", run.migrations);
      w.KV("retunes", run.retunes);
      w.KV("merges", run.merges);
      w.KV("partitions_searched", run.partitions_searched);
      w.Key("classes").BeginArray();
      for (const ClassRow& c : run.classes) {
        w.BeginObject();
        w.KV("class", static_cast<int64_t>(c.cls));
        w.KV("upper", c.upper);
        w.KV("population", c.population);
        w.KV("pages", c.pages);
        w.KV("io", c.io);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndObject();
  }
  w.EndArray();
  w.Key("gates").BeginArray();
  for (const Gate& g : gates) {
    w.BeginObject();
    w.KV("name", g.name);
    w.KV("value", g.value);
    w.KV(g.is_max ? "max" : "min", g.bound);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  if (Status s = WriteBenchJson("partition", w.str()); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.message().c_str());
    return 1;
  }
  return gates_ok ? 0 : 1;
}

}  // namespace
}  // namespace rexp

int main() { return rexp::Main(); }
