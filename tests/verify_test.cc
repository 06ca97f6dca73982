// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the offline invariant verifier (verify/verifier.h): healthy
// indexes — live and persisted, across configurations and churn — must
// produce zero findings, and each seeded corruption class must surface as
// its typed finding. The corruption seeding goes through WritePage (which
// re-seals the frame checksum), so every fault here models a *logical*
// corruption that checksums cannot catch; raw bit rot is covered
// separately via direct file surgery.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/node.h"
#include "tree/tree.h"
#include "verify/verifier.h"

namespace rexp {
namespace {

using ::rexp::testing::EditCommittedMeta;
using ::rexp::testing::FindPageAtLevel;
using ::rexp::testing::RandomPoint;
using verify::CheckId;
using verify::Report;
using verify::TreeVerifier;
using verify::VerifyOptions;

bool HasFinding(const Report& report, CheckId check) {
  for (const verify::Finding& f : report.findings) {
    if (f.check == check) return true;
  }
  return false;
}

std::string Classes(const Report& report) {
  std::string out;
  for (const verify::Finding& f : report.findings) {
    out += verify::CheckIdName(f.check);
    out += " ";
  }
  return out;
}

// Builds a persisted index at `path`: `inserts` random points, then
// `deletes` removals (to exercise merges and populate the free list),
// then a clean close that commits the metadata. Returns the time of the
// last operation.
Time BuildDiskIndex(const std::string& path, const TreeConfig& config,
                    int inserts, int deletes, uint64_t seed) {
  std::remove(path.c_str());
  auto file = DiskPageFile::Open(path, config.page_size, /*keep=*/true)
                  .value();
  auto tree = std::make_unique<Tree<2>>(config, file.get());
  Rng rng(seed);
  std::vector<std::pair<ObjectId, Tpbr<2>>> live;
  Time now = 0;
  for (int i = 0; i < inserts; ++i) {
    now += rng.Uniform(0, 0.01);
    Tpbr<2> p = RandomPoint<2>(&rng, now, /*max_life=*/500.0);
    tree->Insert(static_cast<ObjectId>(i), p, now);
    live.push_back({static_cast<ObjectId>(i), p});
  }
  for (int i = 0; i < deletes && !live.empty(); ++i) {
    size_t k = rng.UniformInt(live.size());
    if (live[k].second.t_exp > now) {
      // Expired records are purged lazily and legitimately undeletable.
      EXPECT_TRUE(tree->Delete(live[k].first, live[k].second, now));
    }
    live[k] = live.back();
    live.pop_back();
  }
  tree->CheckInvariants(now);
  tree.reset();   // Commits metadata.
  file.reset();
  return now;
}

Report Fsck(const std::string& path, const TreeConfig& config, Time now) {
  auto file = DiskPageFile::Open(path, config.page_size, /*keep=*/true)
                  .value();
  VerifyOptions options;
  options.now = now;
  return TreeVerifier<2>::VerifyFile(file.get(), config, options);
}

// Decode -> mutate -> re-encode a node page. WritePage re-seals the
// frame checksum, so the corruption is logical, not detectable as rot.
template <typename Mutator>
void EditNode(PageFile* file, const TreeConfig& config, PageId id,
              Mutator mutate) {
  Page page(config.page_size);
  ASSERT_TRUE(file->ReadPage(id, &page).ok());
  NodeCodec<2> codec(config.page_size, config.StoresVelocities(),
                     config.store_tpbr_expiration);
  Node<2> node;
  codec.Decode(page, &node);
  mutate(&node);
  codec.Encode(node, &page);
  ASSERT_TRUE(file->WritePage(id, page).ok());
}

TreeConfig SmallPages(TreeConfig config) {
  config.page_size = 512;  // Low fan-out => height >= 2 with few records.
  config.buffer_frames = 16;
  return config;
}

// --- healthy trees -------------------------------------------------------

TEST(VerifyHealthy, LiveTreesAcrossConfigurations) {
  struct Flavor {
    const char* name;
    TreeConfig config;
  };
  TreeConfig stored_exp = TreeConfig::Rexp();
  stored_exp.store_tpbr_expiration = true;
  const Flavor flavors[] = {
      {"rexp", TreeConfig::Rexp()},
      {"rexp-stored-expiry", stored_exp},
      {"tpr", TreeConfig::Tpr()},
  };
  for (const Flavor& flavor : flavors) {
    SCOPED_TRACE(flavor.name);
    TreeConfig config = SmallPages(flavor.config);
    MemoryPageFile file(config.page_size);
    Tree<2> tree(config, &file);
    Rng rng(7);
    std::vector<std::pair<ObjectId, Tpbr<2>>> live;
    Time now = 0;
    for (int op = 0; op < 1500; ++op) {
      now += rng.Uniform(0, 0.05);
      if (rng.NextDouble() < 0.65 || live.empty()) {
        Tpbr<2> p = RandomPoint<2>(&rng, now, 90.0);
        ObjectId oid = static_cast<ObjectId>(op);
        tree.Insert(oid, p, now);
        live.push_back({oid, p});
      } else {
        size_t k = rng.UniformInt(live.size());
        (void)tree.Delete(live[k].first, live[k].second, now);
        live[k] = live.back();
        live.pop_back();
      }
    }
    Report report = tree.Verify(now);
    EXPECT_TRUE(report.ok()) << report.ToString();
    EXPECT_GT(report.pages_walked, 1u);
    EXPECT_GT(report.leaf_records_checked, 0u);
  }
}

TEST(VerifyHealthy, PersistedIndexIsClean) {
  const std::string path = ::testing::TempDir() + "/verify_clean.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 200, 11);
  Report report = Fsck(path, config, now);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.pages_walked, 1u);
  EXPECT_GT(report.entries_checked, 0u);
  EXPECT_TRUE(report.walk_complete);
  std::remove(path.c_str());
}

TEST(VerifyHealthy, EmptyCommittedIndexIsClean) {
  const std::string path = ::testing::TempDir() + "/verify_empty.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  BuildDiskIndex(path, config, 0, 0, 1);
  Report report = Fsck(path, config, 0);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.pages_walked, 0u);
  std::remove(path.c_str());
}

// --- seeded corruption classes ------------------------------------------

// Class 1: a bit-flipped (here: collapsed) TPBR bound in an internal
// entry. The stored rectangle no longer contains its child's regions.
TEST(VerifyCorruption, BitFlippedTpbrBoundIsParentContainment) {
  const std::string path = ::testing::TempDir() + "/verify_tpbr.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 0, 23);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    PageId internal = FindPageAtLevel(file.get(), config, 1);
    EditNode(file.get(), config, internal, [](Node<2>* node) {
      // Collapse the child's spatial extent in dimension 0: any spread-out
      // child content now escapes the bound.
      node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
      node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
    });
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kParentContainment))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Class 2: swapped/undercut expiration time in an internal entry (stored-
// expiration configuration): the parent claims its content dies sooner
// than it does, which would let queries prune live subtrees.
TEST(VerifyCorruption, UndercutExpiryIsExpiryMonotonic) {
  const std::string path = ::testing::TempDir() + "/verify_expiry.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  config.store_tpbr_expiration = true;
  const Time now = BuildDiskIndex(path, config, 600, 0, 31);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    PageId internal = FindPageAtLevel(file.get(), config, 1);
    const Time undercut = now + 1e-3;
    EditNode(file.get(), config, internal, [undercut](Node<2>* node) {
      // Points live for up to 500 time units (BuildDiskIndex), so an
      // expiry just past `now` under-estimates some child's lifetime.
      node->entries[0].region.t_exp = undercut;
    });
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kExpiryMonotonic))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Class 3: an orphaned page — removed from the persisted free list, so it
// is committed but neither reachable, free, nor accounted leaked.
TEST(VerifyCorruption, OrphanedPageIsPageAccounting) {
  const std::string path = ::testing::TempDir() + "/verify_orphan.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 450, 43);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [](MetaState* meta) {
      ASSERT_FALSE(meta->free_list.empty()) << "churn did not free any page";
      meta->free_list.pop_back();
    }));
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kPageAccounting))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Class 4: a stale free-list entry pointing at a live (reachable) page.
// Reusing it would overwrite part of the tree.
TEST(VerifyCorruption, ReachableFreePageIsFreeListFinding) {
  const std::string path = ::testing::TempDir() + "/verify_stale.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 0, 53);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    const PageId leaf = FindPageAtLevel(file.get(), config, 0);
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [leaf](MetaState* meta) {
      meta->free_list.push_back(leaf);
    }));
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kFreeList))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Class 5: a non-canonical leaf record — the stored point carries a
// non-finite coordinate, violating the canonical-record contract every
// update relies on (a delete could never match it again). A point with
// spatial *extent* is unrepresentable on a leaf page (only pos/vel are
// stored), so non-finiteness is the class's storable representative.
TEST(VerifyCorruption, NonFiniteLeafRecordIsCanonicalRecord) {
  const std::string path = ::testing::TempDir() + "/verify_canon.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 0, 61);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    const PageId leaf = FindPageAtLevel(file.get(), config, 0);
    EditNode(file.get(), config, leaf, [](Node<2>* node) {
      const double inf = std::numeric_limits<double>::infinity();
      node->entries[0].region.lo[0] = inf;
      node->entries[0].region.hi[0] = inf;
    });
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kCanonicalRecord))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Raw bit rot (no WritePage re-seal) must surface as a checksum finding —
// the verifier reaches the device through the same checksummed layer as
// the tree.
TEST(VerifyCorruption, RawBitRotIsPageChecksum) {
  const std::string path = ::testing::TempDir() + "/verify_rot.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 0, 71);
  {
    // Flip one byte in the middle of the third frame (first non-meta
    // page) directly in the file.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long frame = 16 + static_cast<long>(config.page_size);
    ASSERT_EQ(std::fseek(f, 2 * frame + frame / 2, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kPageChecksum))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// A file with no committed metadata at all (e.g. zero-length) is a
// meta-slot finding, not a clean run.
TEST(VerifyCorruption, MissingMetaIsMetaSlotFinding) {
  const std::string path = ::testing::TempDir() + "/verify_nometa.bin";
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Report report = Fsck(path, config, 0);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kMetaSlot))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

// Level bookkeeping: metadata entry counts disagreeing with the walk is
// its own finding class (distinct from page accounting).
TEST(VerifyCorruption, WrongLevelCountIsLevelBookkeeping) {
  const std::string path = ::testing::TempDir() + "/verify_counts.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  const Time now = BuildDiskIndex(path, config, 600, 0, 83);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [](MetaState* meta) {
      meta->level_counts[0] += 5;
    }));
  }
  Report report = Fsck(path, config, now);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(HasFinding(report, CheckId::kLevelBookkeeping))
      << "findings: " << Classes(report);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rexp
