// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tree/node.h"

#include <cmath>

#include "common/check.h"
#include "common/float_round.h"

namespace rexp {

namespace {

// Node header: level (u16) + count (u16).
constexpr uint32_t kHeaderSize = 4;

}  // namespace

template <int kDims>
NodeCodec<kDims>::NodeCodec(uint32_t page_size, bool store_velocities,
                            bool store_expiration)
    : store_velocities_(store_velocities),
      store_expiration_(store_expiration) {
  const uint32_t leaf_entry_size = 2 * kDims * 4 + 4 /*t_exp*/ + 4 /*oid*/;
  uint32_t internal_entry_size = 2 * kDims * 4 + 4 /*child*/;
  if (store_velocities_) internal_entry_size += 2 * kDims * 4;
  if (store_expiration_) internal_entry_size += 4;
  leaf_capacity_ = static_cast<int>((page_size - kHeaderSize) /
                                    leaf_entry_size);
  internal_capacity_ = static_cast<int>((page_size - kHeaderSize) /
                                        internal_entry_size);
  REXP_CHECK(leaf_capacity_ >= 4 && internal_capacity_ >= 4);
}

// raw-page-ok: codec writes into a caller-pinned frame.
template <int kDims>
void NodeCodec<kDims>::Encode(const Node<kDims>& node, Page* page) const {
  REXP_CHECK(static_cast<int>(node.entries.size()) <= Capacity(node.level));
  page->Write<uint16_t>(0, static_cast<uint16_t>(node.level));
  page->Write<uint16_t>(2, static_cast<uint16_t>(node.entries.size()));
  uint32_t off = kHeaderSize;
  if (node.IsLeaf()) {
    for (const NodeEntry<kDims>& e : node.entries) {
      // Leaf entries are data: the values are float-exact by contract
      // (records are canonicalized before insertion), so a plain cast is
      // lossless.
      for (int d = 0; d < kDims; ++d) {
        page->Write<float>(off, static_cast<float>(e.region.lo[d]));
        off += 4;
      }
      for (int d = 0; d < kDims; ++d) {
        page->Write<float>(off, static_cast<float>(e.region.vlo[d]));
        off += 4;
      }
      page->Write<float>(off, static_cast<float>(e.region.t_exp));
      off += 4;
      page->Write<uint32_t>(off, e.id);
      off += 4;
    }
  } else {
    for (const NodeEntry<kDims>& e : node.entries) {
      // Bounds are rounded outward so that storage can only widen them.
      for (int d = 0; d < kDims; ++d) {
        page->Write<float>(off, FloatRoundDown(e.region.lo[d]));
        off += 4;
      }
      for (int d = 0; d < kDims; ++d) {
        page->Write<float>(off, FloatRoundUp(e.region.hi[d]));
        off += 4;
      }
      if (store_velocities_) {
        for (int d = 0; d < kDims; ++d) {
          page->Write<float>(off, FloatRoundDown(e.region.vlo[d]));
          off += 4;
        }
        for (int d = 0; d < kDims; ++d) {
          page->Write<float>(off, FloatRoundUp(e.region.vhi[d]));
          off += 4;
        }
      }
      if (store_expiration_) {
        page->Write<float>(off, FloatRoundUp(e.region.t_exp));
        off += 4;
      }
      page->Write<uint32_t>(off, e.id);
      off += 4;
    }
  }
  REXP_DCHECK(off <= page->size());
}

template <int kDims>
void NodeCodec<kDims>::Decode(const Page& page, Node<kDims>* node) const {
  node->level = page.Read<uint16_t>(0);
  int count = page.Read<uint16_t>(2);
  node->entries.assign(count, NodeEntry<kDims>{});
  uint32_t off = kHeaderSize;
  if (node->IsLeaf()) {
    for (NodeEntry<kDims>& e : node->entries) {
      for (int d = 0; d < kDims; ++d) {
        e.region.lo[d] = e.region.hi[d] = page.Read<float>(off);
        off += 4;
      }
      for (int d = 0; d < kDims; ++d) {
        e.region.vlo[d] = e.region.vhi[d] = page.Read<float>(off);
        off += 4;
      }
      e.region.t_exp = page.Read<float>(off);
      off += 4;
      e.id = page.Read<uint32_t>(off);
      off += 4;
    }
  } else {
    for (NodeEntry<kDims>& e : node->entries) {
      for (int d = 0; d < kDims; ++d) {
        e.region.lo[d] = page.Read<float>(off);
        off += 4;
      }
      for (int d = 0; d < kDims; ++d) {
        e.region.hi[d] = page.Read<float>(off);
        off += 4;
      }
      if (store_velocities_) {
        for (int d = 0; d < kDims; ++d) {
          e.region.vlo[d] = page.Read<float>(off);
          off += 4;
        }
        for (int d = 0; d < kDims; ++d) {
          e.region.vhi[d] = page.Read<float>(off);
          off += 4;
        }
      } else {
        for (int d = 0; d < kDims; ++d) e.region.vlo[d] = e.region.vhi[d] = 0;
      }
      if (store_expiration_) {
        e.region.t_exp = page.Read<float>(off);
        off += 4;
      } else {
        // Not recorded: fall back to the rectangle's natural expiry (the
        // time its extent would reach zero), which is a sound upper bound
        // on the lifetime of its contents.
        e.region.t_exp = e.region.NaturalExpiry(0);
      }
      e.id = page.Read<uint32_t>(off);
      off += 4;
    }
  }
}

template <int kDims>
NodeHeader NodeCodec<kDims>::DecodeChecked(const Page& page,
                                           int expected_level,
                                           Node<kDims>* node) const {
  NodeHeader header;
  header.level = page.Read<uint16_t>(0);
  header.count = page.Read<uint16_t>(2);
  if (header.level != expected_level) {
    header.fault = NodeHeader::Fault::kLevel;
  } else if (header.count > Capacity(expected_level)) {
    header.fault = NodeHeader::Fault::kCount;
  } else {
    Decode(page, node);
  }
  return header;
}

template class NodeCodec<1>;
template class NodeCodec<2>;
template class NodeCodec<3>;

}  // namespace rexp
