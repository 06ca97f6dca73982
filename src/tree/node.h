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
  int leaf_capacity_;
  int internal_capacity_;
};

}  // namespace rexp

#endif  // REXP_TREE_NODE_H_
