// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Machine-readable benchmark export. Each figure-reproduction binary
// accumulates its printed tables and the underlying per-run results
// (including the full telemetry snapshot of every run) in a BenchExport
// and writes one `BENCH_<name>.json` file next to the human-readable
// tables, so downstream tooling (scripts/extract_results.py, CI trend
// jobs) never parses formatted text.
//
// File shape:
//   {"bench": "<name>", "scale": s,
//    "tables": [{"title": ..., "x_label": ..., "series": [...],
//                "rows": [{"x": v, "values": [...]}, ...]}, ...],
//    "runs": [{"series": ..., "x": v, "search_io": ..., "update_io": ...,
//              "btree_io_per_op": ..., "index_pages": ...,
//              "expired_fraction": ..., "avg_result_size": ...,
//              "avg_false_drops": ..., "queries": ..., "update_ops": ...,
//              "metrics": {<MetricsRegistry::ToJson()>}}, ...]}
//
// The output directory defaults to the working directory and can be
// redirected with REXP_BENCH_DIR. Benchmarks that build their own JSON
// write it with WriteBenchJson, so every artifact lands the same way.

#ifndef REXP_HARNESS_BENCH_EXPORT_H_
#define REXP_HARNESS_BENCH_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "harness/experiment.h"
#include "harness/table_printer.h"

namespace rexp {

// The directory benchmark artifacts go to: REXP_BENCH_DIR, default ".".
std::string BenchDir();

// Writes `json` plus a newline to `<BenchDir()>/BENCH_<name>.json` and
// reports the path on stdout.
Status WriteBenchJson(const std::string& name, std::string json);

class BenchExport {
 public:
  // `name` is the benchmark identifier (e.g. "fig11"); it becomes part of
  // the output filename and must be filesystem-safe. `scale` is the
  // REXP_SCALE the benchmark ran at.
  BenchExport(std::string name, double scale);

  // Records one measured run: the series (variant) name, the x-axis value
  // it was measured at, and the harness result (telemetry included).
  void AddRun(const std::string& series, double x, const RunResult& result);

  // Records a printed table verbatim (series/rows as displayed).
  void AddTable(const TablePrinter& table);

  // Serializes the accumulated data as one JSON object.
  std::string ToJson() const;

  // Writes ToJson() as BENCH_<name>.json (WriteBenchJson).
  Status WriteFile() const;

 private:
  struct Run {
    std::string series;
    double x;
    RunResult result;
  };
  struct Table {
    std::string title;
    std::string x_label;
    std::vector<std::string> series;
    std::vector<TablePrinter::Row> rows;
  };

  std::string name_;
  double scale_;
  std::vector<Run> runs_;
  std::vector<Table> tables_;
};

}  // namespace rexp

#endif  // REXP_HARNESS_BENCH_EXPORT_H_
