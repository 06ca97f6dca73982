// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tree nodes and their on-page representation.
//
// A node is a level tag plus a sequence of entries. Leaf entries hold a
// moving point (degenerate TPBR) and an object id; internal entries hold a
// TPBR and a child page id. The on-page layout uses 32-bit floats and ids:
//
//   leaf entry      : pos[d] vel[d] t_exp oid              = 8d + 8 bytes
//   internal entry  : lo[d] hi[d] [vlo[d] vhi[d]] [t_exp] child
//
// which at d = 2 yields the paper's fan-outs: 170 leaf entries and, with
// velocities and expiration recorded, 102 internal entries per 4 KiB page.
// Internal bounds are rounded outward on encode so that float rounding can
// only widen a bounding rectangle, never invalidate it.

#ifndef REXP_TREE_NODE_H_
#define REXP_TREE_NODE_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "storage/page.h"
#include "tpbr/tpbr.h"

namespace rexp {

template <int kDims>
struct NodeEntry {
  Tpbr<kDims> region;
  // Object id in leaf nodes; child page id in internal nodes.
  uint32_t id = 0;
};

template <int kDims>
struct Node {
  int level = 0;  // 0 = leaf.
  std::vector<NodeEntry<kDims>> entries;

  bool IsLeaf() const { return level == 0; }

  // Index of the entry whose id equals `id`, or -1.
  int FindId(uint32_t id) const {
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].id == id) return static_cast<int>(i);
    }
    return -1;
  }
};

template <int kDims>
class NodeCodec;

// A read-only view of a node page, built by NodeCodec::View: the level,
// the count, and each entry widened from its floats on demand. It reads
// the page in place, so it is valid only while the caller's PageGuard
// pins the frame. Entry is the one reader of the slot layout; Decode is a
// loop over it.
template <int kDims>
class NodeView {
 public:
  int level() const { return level_; }
  int count() const { return count_; }
  bool IsLeaf() const { return level_ == 0; }

  // Entry `i` < count(); widening float to double is exact. Leaf entries
  // are degenerate (lo == hi, vlo == vhi). Internal velocities that are
  // not stored are 0; an expiration that is not stored is the rectangle's
  // natural expiry, a sound bound on the lifetime of its contents.
  NodeEntry<kDims> Entry(int i) const {
    REXP_DCHECK(i >= 0 && i < count_);
    uint32_t off = first_ + static_cast<uint32_t>(i) * entry_size_;
    auto next = [this, &off] {
      off += 4;
      return static_cast<double>(page_->Read<float>(off - 4));
    };
    NodeEntry<kDims> e;
    Tpbr<kDims>& r = e.region;
    if (IsLeaf()) {
      for (int d = 0; d < kDims; ++d) r.lo[d] = r.hi[d] = next();
      for (int d = 0; d < kDims; ++d) r.vlo[d] = r.vhi[d] = next();
      r.t_exp = next();
    } else {
      for (int d = 0; d < kDims; ++d) r.lo[d] = next();
      for (int d = 0; d < kDims; ++d) r.hi[d] = next();
      if (velocities_) {
        for (int d = 0; d < kDims; ++d) r.vlo[d] = next();
        for (int d = 0; d < kDims; ++d) r.vhi[d] = next();
      }
      r.t_exp = expiration_ ? next() : r.NaturalExpiry(0);
    }
    e.id = page_->Read<uint32_t>(off);
    return e;
  }

 private:
  friend class NodeCodec<kDims>;
  const Page* page_ = nullptr;  // raw-page-ok: the caller's guard pins it.
  uint32_t first_ = 0;         // Offset of entry 0.
  uint32_t entry_size_ = 0;
  int level_ = 0;
  int count_ = 0;
  bool velocities_ = false;  // Stored in internal entries?
  bool expiration_ = false;  // Likewise.
};

// The header of a node page that came off the device, as DecodeChecked
// found it. A page fails when its level tag is not the level the walk
// expects there (kLevel), or when it claims more entries than a node of
// that level holds (kCount) — decoding it would run past the page end.
struct NodeHeader {
  enum class Fault { kNone, kLevel, kCount };
  Fault fault = Fault::kNone;
  int level = 0;  // The stored level tag.
  int count = 0;  // The stored entry count.

  bool ok() const { return fault == Fault::kNone; }
};

// Encodes/decodes nodes for a fixed page geometry. The layout depends on
// the tree configuration (velocities stored? expiration stored?).
template <int kDims>
class NodeCodec {
 public:
  NodeCodec(uint32_t page_size, bool store_velocities,
            bool store_expiration);

  int leaf_capacity() const { return leaf_capacity_; }
  int internal_capacity() const { return internal_capacity_; }
  int Capacity(int level) const {
    return level == 0 ? leaf_capacity_ : internal_capacity_;
  }

  // The node must fit (entries <= capacity). The caller passes the
  // pinned frame's page; the codec never owns one.
  void Encode(const Node<kDims>& node, Page* page) const;  // raw-page-ok
  // The page's node, read in place; valid while `page` is pinned. The
  // header is trusted: pages off the device pass DecodeChecked first.
  NodeView<kDims> View(const Page& page) const;
  // Copies every entry of View(page) into `node` (reusing its capacity).
  void Decode(const Page& page, Node<kDims>* node) const;
  // The checked read of a page that came off the device: validates the
  // level tag against `expected_level` and the count against
  // Capacity(expected_level), and decodes into `node` only when both
  // hold. Every reader of a page it did not just write goes through this.
  NodeHeader DecodeChecked(const Page& page, int expected_level,
                           Node<kDims>* node) const;

 private:
  bool store_velocities_;
  bool store_expiration_;
  uint32_t leaf_entry_size_;
  uint32_t internal_entry_size_;
  int leaf_capacity_;
  int internal_capacity_;
};

}  // namespace rexp

#endif  // REXP_TREE_NODE_H_
