// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The three front-ends the benchmark drives (Tree, PartitionedIndex,
// TieredIndex) behind one small interface, plus the benchmark-owned
// PageFile decorator that times device transfers in traced runs.

#ifndef PERFBENCH_FRONTEND_H_
#define PERFBENCH_FRONTEND_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "livetier/tiered_index.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "stream.h"
#include "tree/tree.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// In-memory span log of a traced run. Spans are recorded at the
// benchmark's calls into the index (one per timed operation, one per
// replayed per-tree query) and at the device boundary (the decorator
// below), whose spans are children of the operation that caused them.
enum SpanName : uint8_t {
  kSpanReport,
  kSpanQuery,
  kSpanNn,
  kSpanTick,
  kSpanDeviceRead,
  kSpanDeviceWrite,
  kSpanReplayQuery,
  kSpanReplayNn,
};
inline constexpr const char* kSpanNames[] = {
    "report",      "query",        "nn",           "tick",
    "device_read", "device_write", "replay_query", "replay_nn"};
inline constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t parent;
  SpanName name;
};

struct SpanLog {
  bool enabled = false;  // Off during set-up.
  // Device time and frames are summed only while counting (off while the
  // benchmark replays a query, whose device work is not the index's).
  bool counting = true;
  uint32_t parent = kNoSpan;  // The operation span now open.
  std::vector<Span> spans;
  uint64_t device_read_ns = 0, device_write_ns = 0;
  uint64_t device_reads = 0, device_writes = 0;

  uint32_t Add(SpanName name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent_id) {
    spans.push_back({start_ns, end_ns - start_ns, parent_id, name});
    return static_cast<uint32_t>(spans.size() - 1);
  }
};

// Times ReadFrame/WriteFrame of the wrapped device, built the way
// FaultInjectionPageFile is: the decorator is the PageFile the tree sees
// (allocation, checksums and device counters live in it), and only the
// frame transfers reach the inner file.
class TimedPageFile final : public rexp::PageFile {
 public:
  TimedPageFile(std::unique_ptr<rexp::PageFile> inner, SpanLog* log)
      : PageFile(inner->page_size()), inner_(std::move(inner)), log_(log) {
    capacity_ = inner_->capacity_pages();
    RestoreAllocated(capacity_);
  }

  rexp::Status ReadFrame(rexp::PageId id, uint8_t* frame) override {
    const uint64_t t0 = NowNs();
    rexp::Status s = inner_->ReadFrame(id, frame);
    Note(kSpanDeviceRead, t0, &log_->device_read_ns, &log_->device_reads);
    return s;
  }
  rexp::Status WriteFrame(rexp::PageId id, const uint8_t* frame) override {
    const uint64_t t0 = NowNs();
    rexp::Status s = inner_->WriteFrame(id, frame);
    Note(kSpanDeviceWrite, t0, &log_->device_write_ns, &log_->device_writes);
    return s;
  }
  rexp::Status GrowDevice(rexp::PageId id) override {
    return inner_->GrowDevice(id);
  }
  rexp::Status Sync() override { return inner_->Sync(); }

 private:
  void Note(SpanName name, uint64_t t0, uint64_t* ns, uint64_t* count) {
    if (!log_->enabled) return;
    const uint64_t t1 = NowNs();
    log_->Add(name, t0, t1, log_->parent);
    if (log_->counting) {
      *ns += t1 - t0;
      ++*count;
    }
  }

  std::unique_ptr<rexp::PageFile> inner_;
  SpanLog* log_;
};

// The index under test. Report/Search/Nn are the timed calls.
class Frontend {
 public:
  virtual ~Frontend() = default;
  // Returns Insert's (always true) or Update's result.
  virtual bool Report(const Report& r) = 0;
  virtual void Search(const Query<2>& q, std::vector<ObjectId>* out) = 0;
  virtual void Nn(const Vec<2>& p, Time t, std::vector<ObjectId>* out) = 0;
  virtual void Tick() {}
  // Invariant findings of the whole index (0 = clean).
  virtual size_t VerifyFindings(Time now) = 0;

  const std::vector<rexp::Tree<2>*>& trees() const { return trees_; }
  const std::vector<rexp::PageFile*>& files() const { return files_; }
  uint64_t Pages() const {
    uint64_t n = 0;
    for (const rexp::Tree<2>* t : trees_) n += t->PagesUsed();
    return n;
  }

 protected:
  // A fresh in-memory device, wrapped in the timing decorator when `log`
  // is given.
  rexp::PageFile* NewFile(uint32_t page_size, SpanLog* log) {
    std::unique_ptr<rexp::PageFile> file =
        std::make_unique<rexp::MemoryPageFile>(page_size);
    if (log != nullptr) {
      file = std::make_unique<TimedPageFile>(std::move(file), log);
    }
    files_.push_back(file.get());
    owned_files_.push_back(std::move(file));
    return files_.back();
  }

  // Declared before the indexes of the subclasses, so it outlives them.
  std::vector<std::unique_ptr<rexp::PageFile>> owned_files_;
  std::vector<rexp::PageFile*> files_;
  std::vector<rexp::Tree<2>*> trees_;
};

class TreeFrontend final : public Frontend {
 public:
  TreeFrontend(const rexp::TreeConfig& config, SpanLog* log)
      : tree_(config, NewFile(config.page_size, log)) {
    trees_.push_back(&tree_);
  }
  bool Report(const perfbench::Report& r) override {
    if (r.insert) {
      tree_.Insert(r.oid, r.record, r.now);
      return true;
    }
    return tree_.Update(r.oid, r.old_record, r.record, r.now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    tree_.Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, std::vector<ObjectId>* out) override {
    tree_.NearestNeighbors(p, t, kNnK, out);
  }
  size_t VerifyFindings(Time now) override {
    return tree_.Verify(now).TotalFindings();
  }

 private:
  rexp::Tree<2> tree_;
};

class PartitionedFrontend final : public Frontend {
 public:
  // Fans out on the calling thread (no query pool).
  PartitionedFrontend(const rexp::TreeConfig& config, int partitions,
                      SpanLog* log)
      : index_(config, Files(config.page_size, partitions, log),
               Options(partitions)) {
    for (int i = 0; i < index_.partitions(); ++i) {
      trees_.push_back(index_.tree(i));
    }
  }
  bool Report(const perfbench::Report& r) override {
    if (r.insert) {
      index_.Insert(r.oid, r.record, r.now);
      return true;
    }
    return index_.Update(r.oid, r.old_record, r.record, r.now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    index_.Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, std::vector<ObjectId>* out) override {
    index_.NearestNeighbors(p, t, kNnK, out);
  }
  size_t VerifyFindings(Time now) override {
    return index_.Verify(now).TotalFindings();
  }
  rexp::PartitionedIndex<2>& index() { return index_; }

  // The trees a query may fan out to: active, non-empty classes.
  std::vector<rexp::Tree<2>*> Candidates() {
    std::vector<rexp::Tree<2>*> out;
    for (const auto& [cls, upper] : index_.RoutingTableForTest()) {
      rexp::Tree<2>* t = index_.tree(cls);
      if (t->leaf_entries() > 0) out.push_back(t);
    }
    return out;
  }

 private:
  std::vector<rexp::PageFile*> Files(uint32_t page_size, int n, SpanLog* log) {
    for (int i = 0; i < n; ++i) NewFile(page_size, log);
    return files_;
  }
  static rexp::PartitionedOptions Options(int partitions) {
    rexp::PartitionedOptions o;
    o.partitions = partitions;
    o.query_threads = -1;
    return o;
  }

  rexp::PartitionedIndex<2> index_;
};

class TieredFrontend final : public Frontend {
 public:
  TieredFrontend(const rexp::TreeConfig& config,
                 const rexp::LiveTierOptions& options, SpanLog* log)
      : index_(config, NewFile(config.page_size, log), options) {
    trees_.push_back(&index_.tree());
  }
  bool Report(const perfbench::Report& r) override {
    if (r.insert) {
      index_.Insert(r.oid, r.record, r.now);
      return true;
    }
    return index_.Update(r.oid, r.old_record, r.record, r.now);
  }
  void Search(const Query<2>& q, std::vector<ObjectId>* out) override {
    index_.Search(q, out);
  }
  void Nn(const Vec<2>& p, Time t, std::vector<ObjectId>* out) override {
    index_.NearestNeighbors(p, t, kNnK, out);
  }
  void Tick() override { (void)index_.MigrateTick(); }
  size_t VerifyFindings(Time now) override {
    const size_t live = index_.live_tier().CheckInvariants().ok() ? 0 : 1;
    return live + index_.tree().Verify(now).TotalFindings();
  }
  rexp::TieredIndex<2>& index() { return index_; }

 private:
  rexp::TieredIndex<2> index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FRONTEND_H_
