// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// corrupt_index: build a small persisted R^exp-tree index and/or seed one
// specific corruption class into it. This is the CI harness behind the
// repair gate (scripts/repair_matrix.sh): every class here maps onto a
// verifier finding class, and rexp_fsck --repair / --salvage must turn
// the damaged file back into one that verifies clean.
//
//   $ ./corrupt_index <index-file> [--make N] [--deletes M] --class NAME
//                     [--now T] [--life L] [--page-size N]
//                     [--stored-expiry] [--seed S]
//
// --make N first (re)builds the index at the path with N random 2-d
// points whose expirations lie in (now, now + L]; --deletes M then
// removes M of them (populating the free list, which the orphan-page
// class needs). --class seeds exactly one corruption:
//
//   parent-bound         collapse an internal entry's TPBR extent
//   undercut-expiry      under-estimate an internal entry's expiry
//                        (pass --stored-expiry, and also to rexp_fsck)
//   orphan-page          drop the last persisted free-list entry
//   stale-free           append a reachable leaf to the free list
//   noncanonical-record  store a non-finite leaf coordinate
//   level-count          inflate the persisted leaf-level entry count
//   bit-rot              flip one raw byte mid-frame (checksum rot)
//   both-meta            invalidate both meta slots (salvage-only)
//   none                 build only, corrupt nothing
//
// Exit status: 0 on success, 1 when seeding fails (e.g. the index is too
// shallow for the class), 2 on usage errors.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/parse.h"
#include "common/random.h"
#include "common/types.h"
#include "storage/page_file.h"
#include "tree/meta_format.h"
#include "tree/node.h"
#include "tree/tree.h"
#include "tree/tree_config.h"
#include "verify/verifier.h"

using namespace rexp;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <index-file> [--make N] [--deletes M] --class "
               "NAME [--now T] [--life L] [--page-size N] [--stored-expiry] "
               "[--seed S]\n"
               "classes: parent-bound undercut-expiry orphan-page "
               "stale-free noncanonical-record level-count bit-rot "
               "both-meta none\n",
               argv0);
  return 2;
}

// Decode -> mutate -> re-encode a node page. WritePage re-seals the frame
// checksum, so the corruption is logical, not detectable as rot.
template <typename Mutator>
bool EditNode(PageFile* file, const TreeConfig& config, PageId id,
              Mutator mutate) {
  Page page(config.page_size);
  if (!file->ReadPage(id, &page).ok()) return false;
  NodeCodec<2> codec(config.page_size, config.StoresVelocities(),
                     config.store_tpbr_expiration);
  Node<2> node;
  codec.Decode(page, &node);
  if (node.entries.empty()) return false;
  mutate(&node);
  codec.Encode(node, &page);
  return file->WritePage(id, page).ok();
}

bool BuildIndex(const std::string& path, const TreeConfig& config,
                int inserts, int deletes, Time now, double life,
                uint64_t seed) {
  std::remove(path.c_str());
  auto file_or = DiskPageFile::Open(path, config.page_size, /*keep=*/true);
  if (!file_or.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", path.c_str(),
                 file_or.status().ToString().c_str());
    return false;
  }
  auto file = std::move(file_or).value();
  auto tree = std::make_unique<Tree<2>>(config, file.get());
  Rng rng(seed);
  std::vector<std::pair<ObjectId, Tpbr<2>>> live;
  for (int i = 0; i < inserts; ++i) {
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = rng.Uniform(0, 1000.0);
      vel[d] = rng.Uniform(-3.0, 3.0);
    }
    // Expire strictly after `now + life/2` so every record is live when
    // the repair gate re-verifies at --now.
    const Time t_exp = now + rng.Uniform(life / 2, life);
    Tpbr<2> p = MakeMovingPoint<2>(pos, vel, now, t_exp);
    tree->Insert(static_cast<ObjectId>(i), p, now);
    live.push_back({static_cast<ObjectId>(i), p});
  }
  for (int i = 0; i < deletes && !live.empty(); ++i) {
    size_t k = rng.UniformInt(live.size());
    if (!tree->Delete(live[k].first, live[k].second, now)) {
      std::fprintf(stderr, "delete of live record failed\n");
      return false;
    }
    live[k] = live.back();
    live.pop_back();
  }
  tree.reset();  // Commits metadata.
  file.reset();
  return true;
}

bool SeedCorruption(const std::string& path, const TreeConfig& config,
                    const std::string& cls, Time now) {
  if (cls == "bit-rot") {
    // Flip one byte in the middle of the third frame (first non-meta
    // page) directly in the file, bypassing the checksum layer.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) return false;
    const long frame = 16 + static_cast<long>(config.page_size);
    if (std::fseek(f, 2 * frame + frame / 2, SEEK_SET) != 0) {
      std::fclose(f);
      return false;
    }
    int c = std::fgetc(f);
    if (c == EOF || std::fseek(f, -1, SEEK_CUR) != 0) {
      std::fclose(f);
      return false;
    }
    std::fputc(c ^ 0x40, f);
    return std::fclose(f) == 0;
  }

  auto file_or = DiskPageFile::Open(path, config.page_size, /*keep=*/true);
  if (!file_or.ok()) return false;
  auto file = std::move(file_or).value();

  if (cls == "parent-bound") {
    const PageId internal =
        verify::CommittedPageAtLevel<2>(file.get(), config, 1);
    if (internal == kInvalidPageId) return false;
    return EditNode(file.get(), config, internal, [](Node<2>* node) {
      node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
      node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
    });
  }
  if (cls == "undercut-expiry") {
    if (!config.store_tpbr_expiration) {
      std::fprintf(stderr, "undercut-expiry requires --stored-expiry\n");
      return false;
    }
    const PageId internal =
        verify::CommittedPageAtLevel<2>(file.get(), config, 1);
    if (internal == kInvalidPageId) return false;
    const Time undercut = now + 1e-3;
    return EditNode(file.get(), config, internal, [undercut](Node<2>* node) {
      node->entries[0].region.t_exp = undercut;
    });
  }
  if (cls == "noncanonical-record") {
    const PageId leaf =
        verify::CommittedPageAtLevel<2>(file.get(), config, 0);
    if (leaf == kInvalidPageId) return false;
    return EditNode(file.get(), config, leaf, [](Node<2>* node) {
      const double inf = std::numeric_limits<double>::infinity();
      node->entries[0].region.lo[0] = inf;
      node->entries[0].region.hi[0] = inf;
    });
  }

  if (cls == "both-meta") {
    // Invalidate both slots through the checksum layer: the frames stay
    // valid but hold junk that does not parse as metadata, so only
    // salvage can recover.
    Page junk(config.page_size);
    std::memset(junk.data(), 0xa5, junk.size());
    for (PageId s = 0; s < kNumMetaSlots; ++s) {
      if (!file->WritePage(s, junk).ok()) return false;
    }
    return true;
  }

  // The remaining classes edit the committed meta: decode, change the
  // state, re-encode into the same slot.
  MetaRead meta = ReadMeta(file.get(), 2);
  if (!meta.walkable()) return false;
  MetaState& state = meta.state;
  if (cls == "orphan-page") {
    if (state.free_list.empty()) {
      std::fprintf(stderr,
                   "orphan-page needs a non-empty free list (use "
                   "--deletes)\n");
      return false;
    }
    state.free_list.pop_back();
  } else if (cls == "stale-free") {
    const PageId leaf =
        verify::CommittedPageAtLevel<2>(file.get(), config, 0);
    if (leaf == kInvalidPageId) return false;
    state.free_list.push_back(leaf);
  } else if (cls == "level-count") {
    if (state.level_counts.empty()) return false;
    state.level_counts[0] += 5;
  } else {
    std::fprintf(stderr, "unknown corruption class %s\n", cls.c_str());
    return false;
  }
  Page page(config.page_size);
  EncodeMeta(2, state, &page);
  return file->WritePage(static_cast<PageId>(meta.slot), page).ok();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string path = argv[1];
  std::string cls;
  int make = 0;
  int deletes = 0;
  Time now = 0;
  double life = 1000.0;
  uint32_t page_size = 512;
  uint64_t seed = 1;
  TreeConfig config = TreeConfig::Rexp();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stored-expiry") == 0) {
      config.store_tpbr_expiration = true;
    } else if (std::strcmp(argv[i], "--class") == 0 ||
               std::strcmp(argv[i], "--make") == 0 ||
               std::strcmp(argv[i], "--deletes") == 0 ||
               std::strcmp(argv[i], "--now") == 0 ||
               std::strcmp(argv[i], "--life") == 0 ||
               std::strcmp(argv[i], "--page-size") == 0 ||
               std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s requires a value\n", argv[i]);
        return Usage(argv[0]);
      }
      const char* value = argv[i + 1];
      bool value_ok = true;
      if (std::strcmp(argv[i], "--class") == 0) {
        cls = value;
      } else if (std::strcmp(argv[i], "--make") == 0) {
        int32_t v = 0;
        value_ok = ParseI32(value, &v) && v >= 0;
        make = v;
      } else if (std::strcmp(argv[i], "--deletes") == 0) {
        int32_t v = 0;
        value_ok = ParseI32(value, &v) && v >= 0;
        deletes = v;
      } else if (std::strcmp(argv[i], "--now") == 0) {
        value_ok = ParseDouble(value, &now);
      } else if (std::strcmp(argv[i], "--life") == 0) {
        value_ok = ParsePositiveDouble(value, &life);
      } else if (std::strcmp(argv[i], "--page-size") == 0) {
        value_ok = ParsePositiveU32(value, &page_size);
      } else {
        value_ok = ParseU64(value, &seed);
      }
      if (!value_ok) {
        std::fprintf(stderr, "flag %s: invalid value '%s'\n", argv[i],
                     value);
        return Usage(argv[0]);
      }
      ++i;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (cls.empty()) {
    std::fprintf(stderr, "--class is required (use 'none' to build only)\n");
    return Usage(argv[0]);
  }
  config.page_size = page_size;
  config.buffer_frames = 64;

  if (make > 0 &&
      !BuildIndex(path, config, make, deletes, now, life, seed)) {
    return 1;
  }
  if (cls != "none" && !SeedCorruption(path, config, cls, now)) {
    std::fprintf(stderr, "seeding class %s failed\n", cls.c_str());
    return 1;
  }
  return 0;
}
