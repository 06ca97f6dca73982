// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tree/node.h"

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
      store_expiration_(store_expiration),
      leaf_entry_size_(2 * kDims * 4 + 4 /*t_exp*/ + 4 /*oid*/),
      internal_entry_size_(2 * kDims * 4 + 4 /*child*/ +
                           (store_velocities ? 2 * kDims * 4 : 0) +
                           (store_expiration ? 4 : 0)) {
  leaf_capacity_ = static_cast<int>((page_size - kHeaderSize) /
                                    leaf_entry_size_);
  internal_capacity_ = static_cast<int>((page_size - kHeaderSize) /
                                        internal_entry_size_);
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
NodeView<kDims> NodeCodec<kDims>::View(const Page& page) const {
  NodeView<kDims> view;
  view.level_ = page.Read<uint16_t>(0);
  view.count_ = page.Read<uint16_t>(2);
  view.page_ = &page;
  view.first_ = kHeaderSize;
  view.entry_size_ = view.IsLeaf() ? leaf_entry_size_ : internal_entry_size_;
  view.velocities_ = store_velocities_;
  view.expiration_ = store_expiration_;
  return view;
}

template <int kDims>
void NodeCodec<kDims>::Decode(const Page& page, Node<kDims>* node) const {
  const NodeView<kDims> view = View(page);
  node->level = view.level();
  node->entries.clear();
  node->entries.reserve(view.count());
  for (int i = 0; i < view.count(); ++i) {
    node->entries.push_back(view.Entry(i));
  }
}

template <int kDims>
NodeHeader NodeCodec<kDims>::DecodeChecked(const Page& page,
                                           int expected_level,
                                           Node<kDims>* node) const {
  const NodeView<kDims> view = View(page);
  NodeHeader header{NodeHeader::Fault::kNone, view.level(), view.count()};
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
