// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "harness/bench_export.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "obs/json_writer.h"

namespace rexp {

std::string BenchDir() {
  const char* env = std::getenv("REXP_BENCH_DIR");
  return env != nullptr && env[0] != '\0' ? env : ".";
}

Status WriteBenchJson(const std::string& name, std::string json) {
  const std::string path = BenchDir() + "/BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("open '" + path + "': " + std::strerror(errno));
  }
  json += '\n';
  const size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (n != json.size() || close_rc != 0) {
    return Status::IOError("write '" + path + "' failed");
  }
  std::printf("wrote %s\n", path.c_str());
  std::fflush(stdout);
  return Status::OK();
}

BenchExport::BenchExport(std::string name, double scale)
    : name_(std::move(name)), scale_(scale) {}

void BenchExport::AddRun(const std::string& series, double x,
                         const RunResult& result) {
  runs_.push_back(Run{series, x, result});
}

void BenchExport::AddTable(const TablePrinter& table) {
  tables_.push_back(
      Table{table.title(), table.x_label(), table.series(), table.rows()});
}

std::string BenchExport::ToJson() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("bench", name_);
  w.KV("scale", scale_);
  w.Key("tables").BeginArray();
  for (const Table& t : tables_) {
    w.BeginObject();
    w.KV("title", t.title);
    w.KV("x_label", t.x_label);
    w.Key("series").BeginArray();
    for (const std::string& s : t.series) w.Value(s);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const TablePrinter::Row& row : t.rows) {
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
  for (const Run& r : runs_) {
    w.BeginObject();
    w.KV("series", r.series);
    w.KV("x", r.x);
    w.KV("queries", r.result.queries);
    w.KV("update_ops", r.result.update_ops);
    w.KV("search_io", r.result.search_io);
    w.KV("update_io", r.result.update_io);
    w.KV("btree_io_per_op", r.result.btree_io_per_op);
    w.KV("index_pages", r.result.index_pages);
    w.KV("expired_fraction", r.result.expired_fraction);
    w.KV("avg_result_size", r.result.avg_result_size);
    w.KV("avg_false_drops", r.result.avg_false_drops);
    if (!r.result.metrics_json.empty()) {
      w.Key("metrics").RawValue(r.result.metrics_json);
    }
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status BenchExport::WriteFile() const {
  return WriteBenchJson(name_, ToJson());
}

}  // namespace rexp
