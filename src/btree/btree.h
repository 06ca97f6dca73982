// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// A disk-based B+-tree on the composite key (expiration time, object id),
// used as the scheduled-deletion event queue of paper Section 3: "A B-tree
// on the composite key of the expiration time and the object id could be
// used. The topmost element of the queue can be found easily in the
// leftmost leaf page, and the insertion, deletion, and update operations
// can be performed efficiently."
//
// Each event carries a fixed-size value (the object's canonical record,
// needed to locate it in the primary index when the deletion fires).
// The tree supports insert, delete-by-key, and popping the minimum entry
// while its expiration time is due. Underflowing nodes borrow from or
// merge with siblings, so the structure stays balanced under the constant
// insert/delete churn of the workloads.

#ifndef REXP_BTREE_BTREE_H_
#define REXP_BTREE_BTREE_H_

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/registry.h"
#include "storage/buffer_manager.h"
#include "storage/page_file.h"
#include "verify/verifier.h"

namespace rexp {

class BTree {
 public:
  struct Key {
    float t = 0;       // Expiration time of the scheduled deletion.
    uint32_t id = 0;   // Object id (makes keys unique).

    friend auto operator<=>(const Key&, const Key&) = default;
  };

  // `file` must outlive the tree and be empty. `value_size` is the fixed
  // payload size in bytes (may be 0).
  BTree(PageFile* file, uint32_t buffer_frames, uint32_t value_size);
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts an event. Keys must be unique (enforced with a check).
  void Insert(const Key& key, const uint8_t* value);

  // Removes the event with exactly this key. Returns false if absent.
  [[nodiscard]] bool Delete(const Key& key);

  // If the minimum key has t <= t_max, removes it, copies it (and its
  // value, if `value` is non-null) out, and returns true.
  [[nodiscard]] bool PopFirstUpTo(float t_max, Key* key, uint8_t* value);

  // Reads the minimum key without removing it. Returns false when empty.
  [[nodiscard]] bool PeekMin(Key* key);

  uint64_t size() const { return size_; }
  uint32_t value_size() const { return value_size_; }
  uint64_t PagesUsed() const { return file_->allocated_pages(); }

  const IoStats& io_stats() const { return buffer_.stats(); }
  void ResetIoStats() { buffer_.ResetStats(); }

  // Registers the queue's telemetry — the same buffer-pool and device
  // names a Tree registers, plus size/height/pages gauges — under
  // `prefix` (e.g. "queue."). Bindings are owner-scoped: they unregister
  // automatically when the queue is destroyed (or when RegisterMetrics
  // is called again).
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

  // Verifies the queue's full invariant catalog — page checksums, level
  // tags, strict key ordering, separator bounds, fan-out and minimum
  // occupancy, acyclicity, size and page accounting — and reports every
  // violation as a typed finding (the same schema rexp_fsck emits for the
  // primary index). Flushes dirty buffers first and reads pages straight
  // off the device, so checksum damage under the buffer pool surfaces.
  // Never aborts. Test/fsck hook (unmeasured I/O patterns).
  verify::Report Verify();

  // Verifies ordering, balance, fill factors, and size bookkeeping.
  // Aborts on violation. Test hook (unmeasured I/O patterns).
  void CheckInvariants();

 private:
  struct BtNode {
    int level = 0;  // 0 = leaf.
    std::vector<Key> keys;
    std::vector<PageId> children;            // Internal: keys.size() + 1.
    std::vector<uint8_t> values;             // Leaf: count * value_size.
  };

  // Result of a recursive insert/delete on a child.
  struct SplitResult {
    bool split = false;
    Key separator;       // First key of the new right sibling.
    PageId right = kInvalidPageId;
  };

  BtNode ReadNode(PageId id);
  BtNode DecodeNode(const Page& page) const;
  void WriteNode(PageId id, const BtNode& node);
  PageId AllocNode(const BtNode& node);

  int Capacity(const BtNode& n) const {
    return n.level == 0 ? leaf_capacity_ : internal_capacity_;
  }
  int MinEntries(const BtNode& n) const { return Capacity(n) * 2 / 5; }

  SplitResult InsertRecurse(PageId id, const Key& key, const uint8_t* value);
  // Returns true if the entry was found and removed; `*underflow` reports
  // whether the node at `id` fell below its minimum.
  bool DeleteRecurse(PageId id, const Key& key, bool* underflow);
  // Rebalances child `child_index` of `parent` (which underflowed) by
  // borrowing from or merging with an adjacent sibling.
  void FixChildUnderflow(BtNode* parent, PageId parent_id, int child_index);

  struct VerifyState;
  Key VerifySubtree(PageId id, int level, const Key* lower_bound,
                    VerifyState* state);

  PageFile* const file_;
  BufferManager buffer_;
  const uint32_t value_size_;
  int leaf_capacity_;
  int internal_capacity_;
  PageId root_;
  int height_;  // Number of levels.
  uint64_t size_ = 0;
  // Last member: unbinds this queue's metrics before anything above is
  // torn down, so a registry snapshot never reads a dying component.
  mutable obs::ScopedRegistration metrics_registration_;
};

}  // namespace rexp

#endif  // REXP_BTREE_BTREE_H_
