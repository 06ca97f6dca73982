// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "btree/btree.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/check.h"

namespace rexp {
namespace {

// Page header: level (u16) + count (u16).
constexpr uint32_t kHeaderSize = 4;
constexpr uint32_t kKeySize = 8;    // float t + uint32 id.
constexpr uint32_t kChildSize = 4;  // PageId.

}  // namespace

BTree::BTree(PageFile* file, uint32_t buffer_frames, uint32_t value_size)
    : file_(file), buffer_(file, buffer_frames), value_size_(value_size) {
  uint32_t page = file->page_size();
  leaf_capacity_ = static_cast<int>((page - kHeaderSize) /
                                    (kKeySize + value_size));
  // Internal capacity counts children: count * kChildSize +
  // (count - 1) * kKeySize must fit.
  internal_capacity_ = static_cast<int>(
      (page - kHeaderSize + kKeySize) / (kKeySize + kChildSize));
  REXP_CHECK(leaf_capacity_ >= 4 && internal_capacity_ >= 4);
  REXP_CHECK(file->allocated_pages() == 0);
  BtNode root;
  root.level = 0;
  root_ = AllocNode(root);
  height_ = 1;
  REXP_CHECK_OK(buffer_.FlushDirty());
}

BTree::~BTree() { REXP_CHECK_OK(buffer_.FlushDirty()); }

void BTree::RegisterMetrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) const {
  // One owner per registration so destroying the queue (or registering
  // again) removes all of its bindings at once.
  metrics_registration_.Reset();
  const obs::OwnerId owner = registry->NewOwner();
  buffer_.RegisterMetrics(registry, prefix, owner);
  file_->RegisterMetrics(registry, prefix, owner);
  registry->AddGauge(prefix + "btree.size", [this] {
    return static_cast<double>(size_);
  }, owner);
  registry->AddGauge(prefix + "btree.height", [this] {
    return static_cast<double>(height_);
  }, owner);
  registry->AddGauge(prefix + "btree.pages", [this] {
    return static_cast<double>(file_->allocated_pages());
  }, owner);
  metrics_registration_ = registry->MakeScoped(owner);
}

// ---------------------------------------------------------------------------
// Node serialization.

BTree::BtNode BTree::ReadNode(PageId id) {
  PageGuard guard = buffer_.FetchOrDie(id);
  return DecodeNode(guard.page());
}

BTree::BtNode BTree::DecodeNode(const Page& page) const {
  const Page* p = &page;  // raw-page-ok: alias of the guard's page.
  BtNode node;
  node.level = p->Read<uint16_t>(0);
  int count = p->Read<uint16_t>(2);
  uint32_t off = kHeaderSize;
  if (node.level == 0) {
    node.keys.resize(count);
    node.values.resize(static_cast<size_t>(count) * value_size_);
    for (int i = 0; i < count; ++i) {
      node.keys[i].t = p->Read<float>(off);
      node.keys[i].id = p->Read<uint32_t>(off + 4);
      off += kKeySize;
      if (value_size_ > 0) {
        std::memcpy(node.values.data() + static_cast<size_t>(i) * value_size_,
                    p->data() + off, value_size_);
        off += value_size_;
      }
    }
  } else {
    // `count` is the number of children.
    node.children.resize(count);
    node.keys.resize(count > 0 ? count - 1 : 0);
    for (int i = 0; i < count; ++i) {
      node.children[i] = p->Read<uint32_t>(off);
      off += kChildSize;
      if (i + 1 < count) {
        node.keys[i].t = p->Read<float>(off);
        node.keys[i].id = p->Read<uint32_t>(off + 4);
        off += kKeySize;
      }
    }
  }
  return node;
}

void BTree::WriteNode(PageId id, const BtNode& node) {
  PageGuard guard = buffer_.FetchOrDie(id, PageIntent::kWrite);
  Page* page = guard.mutable_page();  // raw-page-ok: guard stays pinned.
  page->Write<uint16_t>(0, static_cast<uint16_t>(node.level));
  uint32_t off = kHeaderSize;
  if (node.level == 0) {
    int count = static_cast<int>(node.keys.size());
    REXP_CHECK(count <= leaf_capacity_);
    page->Write<uint16_t>(2, static_cast<uint16_t>(count));
    for (int i = 0; i < count; ++i) {
      page->Write<float>(off, node.keys[i].t);
      page->Write<uint32_t>(off + 4, node.keys[i].id);
      off += kKeySize;
      if (value_size_ > 0) {
        std::memcpy(page->data() + off,
                    node.values.data() + static_cast<size_t>(i) * value_size_,
                    value_size_);
        off += value_size_;
      }
    }
  } else {
    int count = static_cast<int>(node.children.size());
    REXP_CHECK(count <= internal_capacity_);
    REXP_CHECK(node.keys.size() + 1 == node.children.size());
    page->Write<uint16_t>(2, static_cast<uint16_t>(count));
    for (int i = 0; i < count; ++i) {
      page->Write<uint32_t>(off, node.children[i]);
      off += kChildSize;
      if (i + 1 < count) {
        page->Write<float>(off, node.keys[i].t);
        page->Write<uint32_t>(off + 4, node.keys[i].id);
        off += kKeySize;
      }
    }
  }
  guard.MarkDirty();
}

PageId BTree::AllocNode(const BtNode& node) {
  PageId id;
  // Release the allocation guard before WriteNode re-fetches the page:
  // the frame latch is not reentrant, so holding it across the second
  // fetch would self-deadlock.
  buffer_.NewPageOrDie(&id).Release();
  WriteNode(id, node);
  return id;
}

// ---------------------------------------------------------------------------
// Insertion.

BTree::SplitResult BTree::InsertRecurse(PageId id, const Key& key,
                                        const uint8_t* value) {
  BtNode node = ReadNode(id);
  SplitResult result;
  if (node.level == 0) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    REXP_CHECK(it == node.keys.end() || *it != key);  // Keys are unique.
    size_t pos = static_cast<size_t>(it - node.keys.begin());
    node.keys.insert(it, key);
    if (value_size_ > 0) {
      node.values.insert(node.values.begin() + pos * value_size_,
                         value, value + value_size_);
    }
    if (static_cast<int>(node.keys.size()) > leaf_capacity_) {
      size_t split = node.keys.size() / 2;
      BtNode right;
      right.level = 0;
      right.keys.assign(node.keys.begin() + split, node.keys.end());
      node.keys.resize(split);
      if (value_size_ > 0) {
        right.values.assign(node.values.begin() + split * value_size_,
                            node.values.end());
        node.values.resize(split * value_size_);
      }
      result.split = true;
      result.separator = right.keys.front();
      result.right = AllocNode(right);
    }
    WriteNode(id, node);
    return result;
  }

  // Internal: find the child whose key range covers `key`.
  size_t ci = static_cast<size_t>(
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin());
  SplitResult child = InsertRecurse(node.children[ci], key, value);
  if (!child.split) return result;
  node.keys.insert(node.keys.begin() + ci, child.separator);
  node.children.insert(node.children.begin() + ci + 1, child.right);
  if (static_cast<int>(node.children.size()) > internal_capacity_) {
    size_t split = node.children.size() / 2;  // Right gets children[split..].
    BtNode right;
    right.level = node.level;
    right.children.assign(node.children.begin() + split, node.children.end());
    right.keys.assign(node.keys.begin() + split, node.keys.end());
    result.separator = node.keys[split - 1];
    node.children.resize(split);
    node.keys.resize(split - 1);
    result.split = true;
    result.right = AllocNode(right);
  }
  WriteNode(id, node);
  return result;
}

void BTree::Insert(const Key& key, const uint8_t* value) {
  SplitResult result = InsertRecurse(root_, key, value);
  if (result.split) {
    BtNode new_root;
    new_root.level = height_;
    new_root.children = {root_, result.right};
    new_root.keys = {result.separator};
    root_ = AllocNode(new_root);
    ++height_;
  }
  ++size_;
  REXP_CHECK_OK(buffer_.FlushDirty());
}

// ---------------------------------------------------------------------------
// Deletion.

void BTree::FixChildUnderflow(BtNode* parent, PageId parent_id,
                              int child_index) {
  (void)parent_id;
  const int ci = child_index;
  PageId child_id = parent->children[ci];
  BtNode child = ReadNode(child_id);

  auto try_sibling = [&](int si) -> bool {
    if (si < 0 || si >= static_cast<int>(parent->children.size())) {
      return false;
    }
    PageId sib_id = parent->children[si];
    BtNode sib = ReadNode(sib_id);
    int sib_count = sib.level == 0 ? static_cast<int>(sib.keys.size())
                                   : static_cast<int>(sib.children.size());
    if (sib_count <= MinEntries(sib)) return false;
    // Borrow one entry across the separator.
    if (si == ci - 1) {  // Borrow from the left sibling's tail.
      if (child.level == 0) {
        child.keys.insert(child.keys.begin(), sib.keys.back());
        sib.keys.pop_back();
        if (value_size_ > 0) {
          child.values.insert(child.values.begin(),
                              sib.values.end() - value_size_,
                              sib.values.end());
          sib.values.resize(sib.values.size() - value_size_);
        }
        parent->keys[ci - 1] = child.keys.front();
      } else {
        child.keys.insert(child.keys.begin(), parent->keys[ci - 1]);
        child.children.insert(child.children.begin(), sib.children.back());
        parent->keys[ci - 1] = sib.keys.back();
        sib.keys.pop_back();
        sib.children.pop_back();
      }
    } else {  // Borrow from the right sibling's head.
      if (child.level == 0) {
        child.keys.push_back(sib.keys.front());
        sib.keys.erase(sib.keys.begin());
        if (value_size_ > 0) {
          child.values.insert(child.values.end(), sib.values.begin(),
                              sib.values.begin() + value_size_);
          sib.values.erase(sib.values.begin(),
                           sib.values.begin() + value_size_);
        }
        parent->keys[ci] = sib.keys.front();
      } else {
        child.keys.push_back(parent->keys[ci]);
        child.children.push_back(sib.children.front());
        parent->keys[ci] = sib.keys.front();
        sib.keys.erase(sib.keys.begin());
        sib.children.erase(sib.children.begin());
      }
    }
    WriteNode(sib_id, sib);
    WriteNode(child_id, child);
    return true;
  };

  if (try_sibling(ci - 1) || try_sibling(ci + 1)) return;

  // Merge with a sibling (one must exist; the root has >= 2 children).
  int li = ci > 0 ? ci - 1 : ci;      // Left node index of the merged pair.
  int ri = li + 1;
  PageId left_id = parent->children[li];
  PageId right_id = parent->children[ri];
  BtNode left, right;
  if (li == ci) {
    left = std::move(child);
    right = ReadNode(right_id);
  } else {
    left = ReadNode(left_id);
    right = std::move(child);
  }
  if (left.level == 0) {
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.values.insert(left.values.end(), right.values.begin(),
                       right.values.end());
  } else {
    left.keys.push_back(parent->keys[li]);
    left.keys.insert(left.keys.end(), right.keys.begin(), right.keys.end());
    left.children.insert(left.children.end(), right.children.begin(),
                         right.children.end());
  }
  WriteNode(left_id, left);
  buffer_.FreePage(right_id);
  parent->children.erase(parent->children.begin() + ri);
  parent->keys.erase(parent->keys.begin() + li);
}

bool BTree::DeleteRecurse(PageId id, const Key& key, bool* underflow) {
  BtNode node = ReadNode(id);
  *underflow = false;
  if (node.level == 0) {
    auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
    if (it == node.keys.end() || *it != key) return false;
    size_t pos = static_cast<size_t>(it - node.keys.begin());
    node.keys.erase(it);
    if (value_size_ > 0) {
      node.values.erase(node.values.begin() + pos * value_size_,
                        node.values.begin() + (pos + 1) * value_size_);
    }
    WriteNode(id, node);
    *underflow = static_cast<int>(node.keys.size()) < MinEntries(node);
    return true;
  }
  size_t ci = static_cast<size_t>(
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin());
  bool child_underflow = false;
  if (!DeleteRecurse(node.children[ci], key, &child_underflow)) return false;
  if (child_underflow) {
    FixChildUnderflow(&node, id, static_cast<int>(ci));
    WriteNode(id, node);
    *underflow = static_cast<int>(node.children.size()) < MinEntries(node);
  }
  return true;
}

bool BTree::Delete(const Key& key) {
  bool underflow = false;
  bool found = DeleteRecurse(root_, key, &underflow);
  if (found) {
    --size_;
    // Shrink the root while it is an internal node with a single child.
    while (height_ > 1) {
      BtNode root = ReadNode(root_);
      if (root.level == 0 || root.children.size() > 1) break;
      PageId old_root = root_;
      root_ = root.children[0];
      buffer_.FreePage(old_root);
      --height_;
    }
  }
  REXP_CHECK_OK(buffer_.FlushDirty());
  return found;
}

// ---------------------------------------------------------------------------
// Minimum access.

bool BTree::PeekMin(Key* key) {
  PageId id = root_;
  for (;;) {
    BtNode node = ReadNode(id);
    if (node.level == 0) {
      if (node.keys.empty()) return false;
      *key = node.keys.front();
      return true;
    }
    id = node.children.front();
  }
}

bool BTree::PopFirstUpTo(float t_max, Key* key, uint8_t* value) {
  // Locate the minimum and copy it out, then delete through the normal
  // rebalancing path.
  PageId id = root_;
  for (;;) {
    BtNode node = ReadNode(id);
    if (node.level == 0) {
      if (node.keys.empty() || node.keys.front().t > t_max) return false;
      *key = node.keys.front();
      if (value != nullptr && value_size_ > 0) {
        std::memcpy(value, node.values.data(), value_size_);
      }
      break;
    }
    id = node.children.front();
  }
  REXP_CHECK(Delete(*key));
  return true;
}

// ---------------------------------------------------------------------------
// Invariant checking.

namespace {

std::string KeyStr(const BTree::Key& k) {
  std::string s = "(";
  s += std::to_string(k.t);
  s += ", ";
  s += std::to_string(k.id);
  s += ")";
  return s;
}

}  // namespace

struct BTree::VerifyState {
  verify::Report* report = nullptr;
  size_t max_findings = 64;
  std::unordered_set<PageId> seen;
  uint64_t entries = 0;

  void Add(verify::CheckId check, PageId page, int level,
           std::string detail) {
    if (report->findings.size() < max_findings) {
      report->findings.push_back({check, page, level, std::move(detail)});
    } else {
      ++report->findings_suppressed;
    }
  }
};

BTree::Key BTree::VerifySubtree(PageId id, int level, const Key* lower_bound,
                                VerifyState* state) {
  const Key fallback = lower_bound != nullptr ? *lower_bound : Key{};
  Page page(file_->page_size());
  Status read = file_->ReadPage(id, &page);
  if (!read.ok()) {
    state->Add(verify::CheckId::kPageChecksum, id, level,
               "queue page unreadable: " + read.message());
    state->report->walk_complete = false;
    return fallback;
  }
  ++state->report->pages_walked;
  const int node_level = page.Read<uint16_t>(0);
  const int count = page.Read<uint16_t>(2);
  if (node_level != level) {
    state->Add(verify::CheckId::kNodeStructure, id, level,
               "level tag " + std::to_string(node_level) + ", expected " +
                   std::to_string(level));
    state->report->walk_complete = false;
    return fallback;
  }
  const int cap = level == 0 ? leaf_capacity_ : internal_capacity_;
  if (count > cap) {
    state->Add(verify::CheckId::kFanout, id, level,
               "count " + std::to_string(count) + " exceeds capacity " +
                   std::to_string(cap));
    state->report->walk_complete = false;
    return fallback;
  }
  BtNode node = DecodeNode(page);
  state->report->entries_checked += node.keys.size();
  for (size_t i = 1; i < node.keys.size(); ++i) {
    if (!(node.keys[i - 1] < node.keys[i])) {
      state->Add(verify::CheckId::kNodeStructure, id, level,
                 "keys out of order at index " + std::to_string(i) + ": " +
                     KeyStr(node.keys[i - 1]) + " !< " +
                     KeyStr(node.keys[i]));
    }
  }
  const int min_entries = MinEntries(node);
  if (node.level == 0) {
    state->report->leaf_records_checked += node.keys.size();
    state->entries += node.keys.size();
    if (id != root_ && static_cast<int>(node.keys.size()) < min_entries) {
      ++state->report->underfull_nodes;
      state->Add(verify::CheckId::kOccupancy, id, level,
                 "leaf holds " + std::to_string(node.keys.size()) +
                     " entries, minimum is " + std::to_string(min_entries));
    }
    if (lower_bound != nullptr && !node.keys.empty() &&
        node.keys.front() < *lower_bound) {
      state->Add(verify::CheckId::kNodeStructure, id, level,
                 "first key " + KeyStr(node.keys.front()) +
                     " below separator bound " + KeyStr(*lower_bound));
    }
    return node.keys.empty() ? fallback : node.keys.back();
  }
  if (id != root_) {
    if (static_cast<int>(node.children.size()) < min_entries) {
      ++state->report->underfull_nodes;
      state->Add(verify::CheckId::kOccupancy, id, level,
                 "internal node holds " +
                     std::to_string(node.children.size()) +
                     " children, minimum is " + std::to_string(min_entries));
    }
  } else if (node.children.size() < 2) {
    state->Add(verify::CheckId::kOccupancy, id, level,
               "internal root holds " + std::to_string(node.children.size()) +
                   " child(ren), minimum is 2");
  }
  Key max_seen = fallback;
  for (size_t i = 0; i < node.children.size(); ++i) {
    const PageId child = node.children[i];
    if (child >= file_->capacity_pages()) {
      state->Add(verify::CheckId::kNodeStructure, id, level,
                 "child " + std::to_string(i) + " references page " +
                     std::to_string(child) + " beyond device capacity");
      state->report->walk_complete = false;
      continue;
    }
    if (!state->seen.insert(child).second) {
      state->Add(verify::CheckId::kNodeStructure, id, level,
                 "child page " + std::to_string(child) +
                     " is reachable twice (cycle or shared subtree)");
      state->report->walk_complete = false;
      continue;
    }
    const Key* lb = i == 0 ? lower_bound : &node.keys[i - 1];
    Key child_max = VerifySubtree(child, level - 1, lb, state);
    if (i < node.keys.size() && !(child_max < node.keys[i])) {
      // Everything in child i must lie strictly below separator i.
      state->Add(verify::CheckId::kNodeStructure, id, level,
                 "child " + std::to_string(i) + " max key " +
                     KeyStr(child_max) + " not below separator " +
                     KeyStr(node.keys[i]));
    }
    max_seen = child_max;
  }
  return max_seen;
}

verify::Report BTree::Verify() {
  verify::Report report;
  report.height = height_;
  const Status flush = buffer_.FlushDirty();
  if (!flush.ok()) {
    report.findings.push_back(verify::Finding{
        verify::CheckId::kPageChecksum, kInvalidPageId, -1,
        "flush before verification failed: " + flush.ToString()});
    return report;
  }
  VerifyState state;
  state.report = &report;
  state.seen.insert(root_);
  VerifySubtree(root_, height_ - 1, nullptr, &state);
  if (report.walk_complete) {
    if (state.entries != size_) {
      state.Add(verify::CheckId::kLevelBookkeeping, kInvalidPageId, -1,
                "walk found " + std::to_string(state.entries) +
                    " entries, size bookkeeping says " +
                    std::to_string(size_));
    }
    if (report.pages_walked != file_->allocated_pages()) {
      state.Add(verify::CheckId::kPageAccounting, kInvalidPageId, -1,
                "walk reached " + std::to_string(report.pages_walked) +
                    " pages, device accounts " +
                    std::to_string(file_->allocated_pages()) +
                    " allocated");
    }
  }
  return report;
}

}  // namespace rexp
