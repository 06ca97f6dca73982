// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The tree's metadata page: the one module that knows its byte layout.
// EncodeMeta is the only writer and ReadMeta the only reader. Tree
// (commit and open), TreeVerifier::VerifyFile, TreeRepairer, the
// partition checker and the tools all go through them; none of them
// parses the page itself. scripts/check_conventions.sh (rule 4) keeps
// the layout constants inside meta_format.{h,cc}.
//
// Metadata lives in two alternating page slots (pages 0 and 1). A commit
// with epoch e writes slot e & 1 — always the slot holding the *older*
// meta — so the newest durable meta survives any torn meta write. The
// reader probes both slots and hands back the newest valid one.
//
// Payload layout (little-endian, offsets in bytes):
//
//   0   u32  magic   "REXP"
//   4   u32  version
//   8   u32  dimensions
//   12  u32  reserved
//   16  u64  epoch (odd epochs live in slot 1, even in slot 0)
//   24  u32  root page id (kInvalidPageId when the tree is empty)
//   28  u32  height (number of levels; 0 iff the tree is empty)
//   32  u64  committed device capacity in pages
//   40  u64  underfull remnants left behind by the orphan cap
//   48  f64  horizon estimator UI
//   56  u64  per-level entry counts, kMetaMaxLevels slots, leaf first
//   216 u32  number of persisted free-list entries
//   220 u64  pages leaked to free-list truncation
//   228 u32  free-list page ids (as many as fit on the page)

#ifndef REXP_TREE_META_FORMAT_H_
#define REXP_TREE_META_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace rexp {

inline constexpr int kMetaMaxLevels = 20;

// Pages 0 and 1 are the two alternating metadata slots.
inline constexpr PageId kNumMetaSlots = 2;

// ReadMeta's `dims` argument that accepts a slot of any dimensionality.
inline constexpr int kAnyMetaDims = 0;

// The tree state one meta slot persists.
struct MetaState {
  uint64_t epoch = 0;
  PageId root = kInvalidPageId;
  int height = 0;          // Number of levels; 0 iff the tree is empty.
  uint64_t committed = 0;  // Device capacity in pages at commit time.
  uint64_t underfull_remnants = 0;
  double ui = 0;  // Horizon estimate; not positive when never learned.
  std::vector<uint64_t> level_counts;  // Leaf first, at most kMetaMaxLevels.
  std::vector<PageId> free_list;
  uint64_t leaked = 0;
};

// Encodes `state` as the meta payload of a `dims`-dimensional tree into
// `page`. Free-list ids beyond what fits on the page are dropped and
// counted as leaked.
void EncodeMeta(int dims, const MetaState& state,
                Page* page);  // raw-page-ok: the caller's page.

// What probing one slot found.
enum class MetaSlotOutcome {
  kValid,
  kMissing,      // The file holds fewer than kNumMetaSlots pages.
  kDeviceError,  // The read failed at the device (kIOError).
  kChecksum,     // The frame failed validation (kCorruption).
  kEmpty,        // Zero magic word: never committed to.
  kBadHeader,    // Wrong magic or version.
  kOtherDims,    // Committed by a tree of other dimensionality.
  kBadParity,    // Epoch 0, or an epoch that belongs in the other slot.
};

struct MetaSlotProbe {
  MetaSlotOutcome outcome = MetaSlotOutcome::kMissing;
  Status read_status;  // The failed read (kDeviceError, kChecksum).
  int dims = 0;        // Recorded dims (kOtherDims, kBadParity, kValid).
  uint64_t epoch = 0;  // Recorded epoch (kBadParity, kValid).

  // Damage, as opposed to a slot that is valid, never committed, or
  // unreadable because the device failed.
  bool damaged() const;
  // "empty (never committed)", "records 3 dims", ...
  std::string ToString() const;
};

// Internal consistency of the newest valid slot, checked in this order;
// the first failure is reported.
enum class MetaConsistency {
  kConsistent,
  kBadHeight,           // More levels than kMetaMaxLevels.
  kRootHeightMismatch,  // A root without levels, or levels without one.
  kBadCapacity,         // Committed capacity below the slots or the device.
  kBadRoot,             // Root outside [kNumMetaSlots, committed).
  kFreeListOverrun,     // The free-list count runs past the page end.
};

struct MetaRead {
  MetaSlotProbe slots[kNumMetaSlots];
  int slot = -1;  // Newest valid slot; -1 when no slot is valid.
  MetaState state;  // Decoded from `slot` up to the first failed check.
  MetaConsistency consistency = MetaConsistency::kConsistent;

  bool found() const { return slot >= 0; }
  // The newest slot describes a tree that can be walked: every field but
  // the free list is consistent.
  bool walkable() const {
    return found() && (consistency == MetaConsistency::kConsistent ||
                       consistency == MetaConsistency::kFreeListOverrun);
  }
  int damaged_slots() const;
  // Dims recorded by a slot committed with other dims, 0 if none was.
  int other_dims() const;
  // "slot 0: <probe>; slot 1: <probe>".
  std::string SlotSummary() const;
  // Why `consistency` failed, naming the slot and epoch.
  std::string InconsistencyDetail() const;
};

// Probes both meta slots of `file` and decodes the valid one with the
// newest epoch. `dims` is the dimensionality the caller expects, or
// kAnyMetaDims. Reports facts only: what to do about a device error, a
// damaged slot or an inconsistent state is the caller's decision.
MetaRead ReadMeta(PageFile* file, int dims);

}  // namespace rexp

#endif  // REXP_TREE_META_FORMAT_H_
