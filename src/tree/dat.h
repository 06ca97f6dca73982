// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The direct-access table (DAT) behind the bottom-up update path: an
// in-memory map from object id to the leaf page that holds the object's
// record, plus the parent-pointer map that lets an update climb from that
// leaf to the root without a ChooseSubtree descent. Update-dominated
// moving-object workloads hit these maps once per leaf entry on every
// node write, so both are built on a small open-addressing hash table
// specialized for 32-bit keys (linear probing, power-of-two capacity,
// tombstone deletion with periodic rehash) rather than on
// std::unordered_map, whose node allocations and pointer chasing would
// show up directly in update latency.
//
// DAT invariants (checked by verify::CheckId::kDatMapping and by
// tests/update_test.cc):
//   * every object id with at least one physical leaf entry (live or
//     expired-but-unpurged) has a DAT entry whose count equals the number
//     of physical copies;
//   * a DAT entry's leaf page is recorded (!= kInvalidPageId) only when
//     count == 1, and then names exactly the leaf holding the copy;
//   * object ids with no physical entry do not appear.
// A recorded leaf is invalidated whenever the count changes (the copy may
// be anywhere) and re-learned from the next write of the leaf that holds
// it — node writes are the single point through which every entry
// placement flows.

#ifndef REXP_TREE_DAT_H_
#define REXP_TREE_DAT_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace rexp {

// Open-addressing hash map from uint32_t keys to trivially copyable
// values. Linear probing over a power-of-two table; deletions leave
// tombstones that are reclaimed by rehashing once they outnumber a
// quarter of the table. That sweep also sizes the table from the live
// count, so a drained map gives its memory back and ForEach stays
// proportional to what the map holds. Not thread-safe: callers serialize
// under the tree's exclusive epoch.
template <typename Value>
class U32HashMap {
 public:
  U32HashMap() { Reset(kInitialCapacity); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return slots_.size(); }

  void Clear() { Reset(kInitialCapacity); }

  // Returns the value for `key`, or nullptr.
  Value* Find(uint32_t key) {
    size_t idx = FindSlot(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }
  const Value* Find(uint32_t key) const {
    size_t idx = FindSlot(key);
    return idx == kNotFound ? nullptr : &slots_[idx].value;
  }

  // Inserts `value` under `key`, overwriting any existing value.
  void Put(uint32_t key, const Value& value) {
    *FindOrInsert(key, Value{}) = value;
  }

  // Returns a reference to the value for `key`, inserting
  // `default_value` if absent.
  Value* FindOrInsert(uint32_t key, const Value& default_value) {
    MaybeGrow();
    const size_t mask = slots_.size() - 1;
    size_t idx = Hash(key) & mask;
    size_t first_tombstone = kNotFound;
    for (;;) {
      switch (state_[idx]) {
        case kEmpty: {
          size_t target = first_tombstone != kNotFound ? first_tombstone
                                                       : idx;
          if (state_[target] == kTombstone) --tombstones_;
          state_[target] = kFull;
          slots_[target].key = key;
          slots_[target].value = default_value;
          ++size_;
          return &slots_[target].value;
        }
        case kTombstone:
          if (first_tombstone == kNotFound) first_tombstone = idx;
          break;
        case kFull:
          if (slots_[idx].key == key) return &slots_[idx].value;
          break;
        default:
          REXP_CHECK(false);
      }
      idx = (idx + 1) & mask;
    }
  }

  // Removes `key` if present; returns whether it was.
  bool Erase(uint32_t key) {
    size_t idx = FindSlot(key);
    if (idx == kNotFound) return false;
    state_[idx] = kTombstone;
    ++tombstones_;
    --size_;
    return true;
  }

  // Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (state_[i] == kFull) fn(slots_[i].key, slots_[i].value);
    }
  }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr size_t kInitialCapacity = 64;
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  struct Slot {
    uint32_t key;
    Value value;
  };

  // Fibonacci multiplicative hash: spreads sequential object/page ids
  // (the common case) across the table.
  static size_t Hash(uint32_t key) {
    return static_cast<size_t>(key) * 2654435761u;
  }

  size_t FindSlot(uint32_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t idx = Hash(key) & mask;
    for (;;) {
      if (state_[idx] == kEmpty) return kNotFound;
      if (state_[idx] == kFull && slots_[idx].key == key) return idx;
      idx = (idx + 1) & mask;
    }
  }

  void Reset(size_t capacity) {
    slots_.assign(capacity, Slot{});
    state_.assign(capacity, kEmpty);
    size_ = 0;
    tombstones_ = 0;
  }

  void MaybeGrow() {
    // Keep the live load factor at or below 1/2 and sweep tombstones once
    // they occupy a quarter of the table (either condition degrades probe
    // lengths).
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.size() * 2);
    } else if (tombstones_ * 4 > slots_.size()) {
      // The smallest table at most a quarter full, never larger than the
      // current one: only a table below 1/8 load shrinks.
      size_t capacity = kInitialCapacity;
      while (capacity < (size_ + 1) * 4 && capacity < slots_.size()) {
        capacity *= 2;
      }
      Rehash(capacity);
    }
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old_slots = std::move(slots_);
    std::vector<uint8_t> old_state = std::move(state_);
    Reset(capacity);
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < old_slots.size(); ++i) {
      if (old_state[i] != kFull) continue;
      size_t idx = Hash(old_slots[i].key) & mask;
      while (state_[idx] == kFull) idx = (idx + 1) & mask;
      state_[idx] = kFull;
      slots_[idx] = old_slots[i];
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::vector<uint8_t> state_;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

// One DAT entry: where the object's single physical copy lives (when
// known) and how many physical copies exist.
struct DatEntry {
  PageId leaf = kInvalidPageId;
  uint32_t count = 0;
};

// The object-id → leaf direct-access table. Reference counts track the
// number of physical leaf entries per object id; the leaf page is only
// trusted while the count is exactly one.
class DirectAccessTable {
 public:
  // A physical leaf entry for `oid` was added somewhere. The location is
  // unknown until the leaf holding it is written (NoteLeaf).
  void AddRef(ObjectId oid) {
    DatEntry* e = map_.FindOrInsert(oid, DatEntry{});
    e->count += 1;
    e->leaf = kInvalidPageId;
  }

  // A physical leaf entry for `oid` was removed.
  void ReleaseRef(ObjectId oid) {
    DatEntry* e = map_.Find(oid);
    REXP_CHECK(e != nullptr && e->count > 0);
    e->count -= 1;
    if (e->count == 0) {
      map_.Erase(oid);
    } else {
      // A surviving copy exists, but which one (and where) is unknown.
      e->leaf = kInvalidPageId;
    }
  }

  // The leaf page `leaf` was written holding an entry for `oid`. Records
  // the location when `oid` has exactly one physical copy — that copy is
  // then necessarily this one.
  void NoteLeaf(ObjectId oid, PageId leaf) {
    DatEntry* e = map_.Find(oid);
    if (e != nullptr && e->count == 1) e->leaf = leaf;
  }

  // The entry for `oid`, or nullptr when it has no physical copy.
  const DatEntry* Find(ObjectId oid) const { return map_.Find(oid); }

  // The leaf holding `oid`'s single physical copy, or kInvalidPageId when
  // the object has no copy, several, or one whose leaf is not yet known.
  // Every reader of a pin goes through here, so the trust rule
  // (count == 1) has one owner (scripts/check_conventions.sh rule 9).
  PageId PinnedLeaf(ObjectId oid) const {
    const DatEntry* e = map_.Find(oid);
    return e != nullptr && e->count == 1 ? e->leaf : kInvalidPageId;
  }

  size_t size() const { return map_.size(); }
  void Clear() { map_.Clear(); }

  // Calls fn(oid, entry) for every tracked object id.
  template <typename Fn>
  void ForEach(Fn fn) const {
    map_.ForEach(fn);
  }

 private:
  U32HashMap<DatEntry> map_;
};

}  // namespace rexp

#endif  // REXP_TREE_DAT_H_
