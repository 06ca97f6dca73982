// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tree/meta_format.h"

#include <algorithm>
#include <utility>

namespace rexp {
namespace {

constexpr uint32_t kMetaMagic = 0x52455850;  // "REXP"
constexpr uint32_t kMetaVersion = 2;

// Field offsets of the meta payload (layout table in meta_format.h).
constexpr uint32_t kMetaMagicFieldOffset = 0;
constexpr uint32_t kMetaVersionFieldOffset = 4;
constexpr uint32_t kMetaDimsFieldOffset = 8;
constexpr uint32_t kMetaEpochFieldOffset = 16;
constexpr uint32_t kMetaRootFieldOffset = 24;
constexpr uint32_t kMetaHeightFieldOffset = 28;
constexpr uint32_t kMetaCapacityFieldOffset = 32;
constexpr uint32_t kMetaUnderfullFieldOffset = 40;
constexpr uint32_t kMetaUiFieldOffset = 48;
constexpr uint32_t kMetaLevelCountsFieldOffset = 56;
constexpr uint32_t kMetaFreeCountFieldOffset =
    kMetaLevelCountsFieldOffset + 8 * kMetaMaxLevels;
constexpr uint32_t kMetaLeakedFieldOffset = kMetaFreeCountFieldOffset + 4;
constexpr uint32_t kMetaFreeListOffset = kMetaLeakedFieldOffset + 8;

// Free-list ids a page of `page_size` bytes has room for.
uint32_t FreeListCapacity(uint32_t page_size) {
  return (page_size - kMetaFreeListOffset) / 4;
}

// Decodes `page` into `s`, up to the first internal inconsistency.
MetaConsistency DecodeState(const Page& page, uint64_t device_pages,
                            MetaState* s) {
  s->epoch = page.Read<uint64_t>(kMetaEpochFieldOffset);
  s->root = page.Read<uint32_t>(kMetaRootFieldOffset);
  s->height = static_cast<int>(page.Read<uint32_t>(kMetaHeightFieldOffset));
  s->committed = page.Read<uint64_t>(kMetaCapacityFieldOffset);
  s->underfull_remnants = page.Read<uint64_t>(kMetaUnderfullFieldOffset);
  s->ui = page.Read<double>(kMetaUiFieldOffset);
  if (s->height < 0 || s->height > kMetaMaxLevels) {
    return MetaConsistency::kBadHeight;
  }
  if ((s->root == kInvalidPageId) != (s->height == 0)) {
    return MetaConsistency::kRootHeightMismatch;
  }
  if (s->committed < kNumMetaSlots || s->committed > device_pages) {
    return MetaConsistency::kBadCapacity;
  }
  if (s->root != kInvalidPageId &&
      (s->root < kNumMetaSlots || s->root >= s->committed)) {
    return MetaConsistency::kBadRoot;
  }
  s->level_counts.resize(static_cast<size_t>(s->height));
  for (int l = 0; l < s->height; ++l) {
    s->level_counts[static_cast<size_t>(l)] = page.Read<uint64_t>(
        kMetaLevelCountsFieldOffset + 8 * static_cast<uint32_t>(l));
  }
  const uint32_t persisted = page.Read<uint32_t>(kMetaFreeCountFieldOffset);
  if (persisted > FreeListCapacity(page.size())) {
    return MetaConsistency::kFreeListOverrun;
  }
  s->leaked = page.Read<uint64_t>(kMetaLeakedFieldOffset);
  s->free_list.resize(persisted);
  for (uint32_t i = 0; i < persisted; ++i) {
    s->free_list[i] = page.Read<uint32_t>(kMetaFreeListOffset + 4 * i);
  }
  return MetaConsistency::kConsistent;
}

}  // namespace

// raw-page-ok: encodes into the caller's page.
void EncodeMeta(int dims, const MetaState& state, Page* page) {
  page->Clear();
  page->Write<uint32_t>(kMetaMagicFieldOffset, kMetaMagic);
  page->Write<uint32_t>(kMetaVersionFieldOffset, kMetaVersion);
  page->Write<uint32_t>(kMetaDimsFieldOffset, static_cast<uint32_t>(dims));
  page->Write<uint64_t>(kMetaEpochFieldOffset, state.epoch);
  page->Write<uint32_t>(kMetaRootFieldOffset, state.root);
  page->Write<uint32_t>(kMetaHeightFieldOffset,
                        static_cast<uint32_t>(state.height));
  // Device extent at commit time: pages at or beyond it are uncommitted
  // growth and are reclaimed on recovery.
  page->Write<uint64_t>(kMetaCapacityFieldOffset, state.committed);
  page->Write<uint64_t>(kMetaUnderfullFieldOffset, state.underfull_remnants);
  page->Write<double>(kMetaUiFieldOffset, state.ui);
  const size_t levels =
      std::min<size_t>(state.level_counts.size(), kMetaMaxLevels);
  for (size_t l = 0; l < levels; ++l) {
    page->Write<uint64_t>(
        kMetaLevelCountsFieldOffset + 8 * static_cast<uint32_t>(l),
        state.level_counts[l]);
  }
  // Persist as much of the free list as fits so that page reuse resumes
  // after a re-open; the overflow is counted as leaked.
  const uint32_t persisted = static_cast<uint32_t>(std::min<size_t>(
      state.free_list.size(), FreeListCapacity(page->size())));
  page->Write<uint32_t>(kMetaFreeCountFieldOffset, persisted);
  page->Write<uint64_t>(kMetaLeakedFieldOffset,
                        state.leaked + (state.free_list.size() - persisted));
  for (uint32_t i = 0; i < persisted; ++i) {
    page->Write<uint32_t>(kMetaFreeListOffset + 4 * i, state.free_list[i]);
  }
}

bool MetaSlotProbe::damaged() const {
  return outcome == MetaSlotOutcome::kChecksum ||
         outcome == MetaSlotOutcome::kBadHeader ||
         outcome == MetaSlotOutcome::kOtherDims ||
         outcome == MetaSlotOutcome::kBadParity;
}

std::string MetaSlotProbe::ToString() const {
  switch (outcome) {
    case MetaSlotOutcome::kValid:
      return "valid (epoch " + std::to_string(epoch) + ")";
    case MetaSlotOutcome::kMissing:
      return "missing (file too short)";
    case MetaSlotOutcome::kDeviceError:
    case MetaSlotOutcome::kChecksum:
      return read_status.message();
    case MetaSlotOutcome::kEmpty:
      return "empty (never committed)";
    case MetaSlotOutcome::kBadHeader:
      return "bad magic/version";
    case MetaSlotOutcome::kOtherDims:
      return "records " + std::to_string(dims) + " dims";
    case MetaSlotOutcome::kBadParity:
      return "epoch " + std::to_string(epoch) + " fails slot-parity check";
  }
  return "unknown";
}

int MetaRead::damaged_slots() const {
  int n = 0;
  for (const MetaSlotProbe& probe : slots) n += probe.damaged() ? 1 : 0;
  return n;
}

int MetaRead::other_dims() const {
  for (const MetaSlotProbe& probe : slots) {
    if (probe.outcome == MetaSlotOutcome::kOtherDims) return probe.dims;
  }
  return 0;
}

std::string MetaRead::SlotSummary() const {
  std::string out;
  for (PageId s = 0; s < kNumMetaSlots; ++s) {
    if (!out.empty()) out += "; ";
    out += "slot " + std::to_string(s) + ": " + slots[s].ToString();
  }
  return out;
}

std::string MetaRead::InconsistencyDetail() const {
  if (consistency == MetaConsistency::kFreeListOverrun) {
    return "meta free list overruns the slot";
  }
  return "meta slot " + std::to_string(slot) + " (epoch " +
         std::to_string(state.epoch) + ") is internally inconsistent";
}

MetaRead ReadMeta(PageFile* file, int dims) {
  MetaRead read;
  if (file->capacity_pages() < kNumMetaSlots) return read;  // kMissing.
  Page page(file->page_size());
  Page best(file->page_size());
  for (PageId s = 0; s < kNumMetaSlots; ++s) {
    MetaSlotProbe& probe = read.slots[s];
    Status status = file->ReadPage(s, &page);
    if (!status.ok()) {
      probe.outcome = status.IsIOError() ? MetaSlotOutcome::kDeviceError
                                         : MetaSlotOutcome::kChecksum;
      probe.read_status = std::move(status);
      continue;
    }
    const uint32_t magic = page.Read<uint32_t>(kMetaMagicFieldOffset);
    if (magic == 0) {
      // A slot never committed to: a fresh file's slot 0, or the older
      // slot of an index committed exactly once.
      probe.outcome = MetaSlotOutcome::kEmpty;
      continue;
    }
    if (magic != kMetaMagic ||
        page.Read<uint32_t>(kMetaVersionFieldOffset) != kMetaVersion) {
      probe.outcome = MetaSlotOutcome::kBadHeader;
      continue;
    }
    probe.dims = static_cast<int>(page.Read<uint32_t>(kMetaDimsFieldOffset));
    if (dims != kAnyMetaDims && probe.dims != dims) {
      probe.outcome = MetaSlotOutcome::kOtherDims;
      continue;
    }
    probe.epoch = page.Read<uint64_t>(kMetaEpochFieldOffset);
    if (probe.epoch == 0 || (probe.epoch & 1) != s) {
      probe.outcome = MetaSlotOutcome::kBadParity;
      continue;
    }
    probe.outcome = MetaSlotOutcome::kValid;
    if (read.slot < 0 || probe.epoch > read.slots[read.slot].epoch) {
      read.slot = static_cast<int>(s);
      std::swap(page, best);
    }
  }
  if (read.slot >= 0) {
    read.consistency =
        DecodeState(best, file->capacity_pages(), &read.state);
  }
  return read;
}

}  // namespace rexp
