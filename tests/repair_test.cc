// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the repair & salvage subsystem (verify/repair.h): every
// corruption class the verifier detects must round-trip through
// TreeRepairer::Repair (or, where in-place repair would have to guess at
// data, through Salvage) into a file the verifier reports clean — while
// preserving 100% of the salvageable unexpired records against an oracle
// kept alongside the build.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/query.h"
#include "common/random.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/node.h"
#include "tree/tree.h"
#include "verify/repair.h"
#include "verify/verifier.h"

namespace rexp {
namespace {

using ::rexp::testing::EditCommittedMeta;
using ::rexp::testing::FindPageAtLevel;
using ::rexp::testing::RandomPoint;
using verify::RepairOptions;
using verify::RepairReport;
using verify::Report;
using verify::SalvageOptions;
using verify::SalvageReport;
using verify::TreeRepairer;
using verify::TreeVerifier;
using verify::VerifyOptions;

TreeConfig SmallPages(TreeConfig config) {
  config.page_size = 512;  // Low fan-out => height >= 2 with few records.
  config.buffer_frames = 16;
  return config;
}

struct Oracle {
  Time now = 0;
  std::map<ObjectId, Tpbr<2>> live;  // Records live (unexpired) at `now`.

  std::set<ObjectId> oids() const {
    std::set<ObjectId> out;
    for (const auto& [oid, p] : live) out.insert(oid);
    return out;
  }
};

// Builds a persisted index at `path` and returns the oracle inventory of
// the records that survive to the clean close.
Oracle BuildDiskIndex(const std::string& path, const TreeConfig& config,
                      int inserts, int deletes, uint64_t seed) {
  std::remove(path.c_str());
  auto file =
      DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
  auto tree = std::make_unique<Tree<2>>(config, file.get());
  Rng rng(seed);
  Oracle oracle;
  std::vector<std::pair<ObjectId, Tpbr<2>>> live;
  for (int i = 0; i < inserts; ++i) {
    oracle.now += rng.Uniform(0, 0.01);
    Tpbr<2> p = RandomPoint<2>(&rng, oracle.now, /*max_life=*/500.0);
    tree->Insert(static_cast<ObjectId>(i), p, oracle.now);
    live.push_back({static_cast<ObjectId>(i), p});
  }
  for (int i = 0; i < deletes && !live.empty(); ++i) {
    size_t k = rng.UniformInt(live.size());
    if (live[k].second.t_exp > oracle.now) {
      EXPECT_TRUE(tree->Delete(live[k].first, live[k].second, oracle.now));
    }
    live[k] = live.back();
    live.pop_back();
  }
  tree.reset();
  file.reset();
  for (const auto& [oid, p] : live) {
    if (p.t_exp > oracle.now) oracle.live[oid] = p;
  }
  return oracle;
}

Report Fsck(const std::string& path, const TreeConfig& config, Time now) {
  auto file =
      DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
  VerifyOptions options;
  options.now = now;
  return TreeVerifier<2>::VerifyFile(file.get(), config, options);
}

RepairReport Repair(const std::string& path, const TreeConfig& config,
                    Time now, bool dry_run = false) {
  auto file =
      DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
  RepairOptions options;
  options.verify.now = now;
  options.dry_run = dry_run;
  auto report = TreeRepairer<2>::Repair(file.get(), config, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// Salvages `path` into a fresh file and renames it over the original,
// like rexp_fsck --salvage does.
SalvageReport Salvage(const std::string& path, const TreeConfig& config,
                      Time now,
                      std::vector<verify::QuarantinedPage>* quarantine) {
  const std::string fresh_path = path + ".new";
  std::remove(fresh_path.c_str());
  SalvageReport report;
  {
    auto damaged =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    auto fresh = DiskPageFile::Open(fresh_path, config.page_size,
                                    /*keep=*/true)
                     .value();
    SalvageOptions options;
    options.now = now;
    options.verify.now = now;
    auto got = TreeRepairer<2>::Salvage(damaged.get(), fresh.get(), config,
                                        options, quarantine);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    report = std::move(got).value();
  }
  EXPECT_EQ(std::rename(fresh_path.c_str(), path.c_str()), 0);
  return report;
}

// The live inventory of a (re)opened index: every object a full-space
// timeslice query at `now` reports.
std::set<ObjectId> LiveOids(const std::string& path, const TreeConfig& config,
                            Time now) {
  auto file =
      DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
  auto tree = Tree<2>::Open(config, file.get()).value();
  std::vector<ObjectId> hits;
  tree->Search(Query<2>::Timeslice(Rect<2>::Cube({500.0, 500.0}, 1e5), now),
               &hits);
  return std::set<ObjectId>(hits.begin(), hits.end());
}

// Overwrites both meta slots with junk that does not parse as metadata.
// WritePage keeps the frames checksum-valid, so only salvage recovers.
void ClobberMetaSlots(PageFile* file) {
  Page junk(file->page_size());
  std::memset(junk.data(), 0xa5, junk.size());
  for (PageId s = 0; s < kNumMetaSlots; ++s) {
    ASSERT_TRUE(file->WritePage(s, junk).ok());
  }
}

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

// Repairs a corrupted file and asserts the canonical postconditions:
// findings before, clean after, full oracle preservation.
void ExpectRepairRestores(const std::string& path, const TreeConfig& config,
                          const Oracle& oracle) {
  RepairReport report = Repair(path, config, oracle.now);
  EXPECT_FALSE(report.before.ok());
  EXPECT_FALSE(report.needs_salvage);
  EXPECT_TRUE(report.after.ok()) << report.after.ToString();
  EXPECT_TRUE(report.changed());
  EXPECT_TRUE(report.ok());
  Report recheck = Fsck(path, config, oracle.now);
  EXPECT_TRUE(recheck.ok()) << recheck.ToString();
  EXPECT_EQ(LiveOids(path, config, oracle.now), oracle.oids());
}

// --- repairable corruption classes ---------------------------------------

TEST(Repair, CleanTreeIsUntouched) {
  const std::string path = ::testing::TempDir() + "/repair_clean.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 400, 100, 7);
  RepairReport report = Repair(path, config, oracle.now);
  EXPECT_TRUE(report.before.ok()) << report.before.ToString();
  EXPECT_FALSE(report.changed());
  EXPECT_TRUE(report.actions.empty());
  EXPECT_TRUE(report.ok());
  std::remove(path.c_str());
}

TEST(Repair, ViolatedParentBoundIsTightened) {
  const std::string path = ::testing::TempDir() + "/repair_tpbr.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 23);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    PageId internal = FindPageAtLevel(file.get(), config, 1);
    EditNode(file.get(), config, internal, [](Node<2>* node) {
      node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
      node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
    });
  }
  ExpectRepairRestores(path, config, oracle);
  std::remove(path.c_str());
}

TEST(Repair, UndercutExpiryIsRecomputed) {
  const std::string path = ::testing::TempDir() + "/repair_expiry.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  config.store_tpbr_expiration = true;
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 31);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    PageId internal = FindPageAtLevel(file.get(), config, 1);
    const Time undercut = oracle.now + 1e-3;
    EditNode(file.get(), config, internal, [undercut](Node<2>* node) {
      node->entries[0].region.t_exp = undercut;
    });
  }
  ExpectRepairRestores(path, config, oracle);
  std::remove(path.c_str());
}

TEST(Repair, OrphanedPageIsReclaimed) {
  const std::string path = ::testing::TempDir() + "/repair_orphan.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 450, 43);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [](MetaState* meta) {
      ASSERT_FALSE(meta->free_list.empty()) << "churn did not free any page";
      meta->free_list.pop_back();
    }));
  }
  RepairReport report = Repair(path, config, oracle.now);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_GE(report.pages_reclaimed, 1u);
  EXPECT_TRUE(Fsck(path, config, oracle.now).ok());
  EXPECT_EQ(LiveOids(path, config, oracle.now), oracle.oids());
  std::remove(path.c_str());
}

TEST(Repair, StaleFreeListEntryIsRebuilt) {
  const std::string path = ::testing::TempDir() + "/repair_stale.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 53);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    const PageId leaf = FindPageAtLevel(file.get(), config, 0);
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [leaf](MetaState* meta) {
      meta->free_list.push_back(leaf);
    }));
  }
  ExpectRepairRestores(path, config, oracle);
  std::remove(path.c_str());
}

TEST(Repair, NonCanonicalRecordIsDroppedOthersSurvive) {
  const std::string path = ::testing::TempDir() + "/repair_canon.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 61);
  ObjectId corrupted = 0;
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    const PageId leaf = FindPageAtLevel(file.get(), config, 0);
    EditNode(file.get(), config, leaf, [&corrupted](Node<2>* node) {
      corrupted = node->entries[0].id;
      const double inf = std::numeric_limits<double>::infinity();
      node->entries[0].region.lo[0] = inf;
      node->entries[0].region.hi[0] = inf;
    });
  }
  RepairReport report = Repair(path, config, oracle.now);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_EQ(report.records_dropped_noncanonical, 1u);
  EXPECT_TRUE(Fsck(path, config, oracle.now).ok());
  // Exactly the unrecoverable record is gone; every other one survives.
  std::set<ObjectId> expected = oracle.oids();
  expected.erase(corrupted);
  EXPECT_EQ(LiveOids(path, config, oracle.now), expected);
  std::remove(path.c_str());
}

TEST(Repair, WrongLevelCountIsRebuilt) {
  const std::string path = ::testing::TempDir() + "/repair_counts.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 83);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ASSERT_TRUE(EditCommittedMeta(file.get(), 2, [](MetaState* meta) {
      meta->level_counts[0] += 5;
    }));
  }
  ExpectRepairRestores(path, config, oracle);
  std::remove(path.c_str());
}

TEST(Repair, DryRunWritesNothing) {
  const std::string path = ::testing::TempDir() + "/repair_dry.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 97);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    PageId internal = FindPageAtLevel(file.get(), config, 1);
    EditNode(file.get(), config, internal, [](Node<2>* node) {
      node->entries[0].region.hi[0] = node->entries[0].region.lo[0];
      node->entries[0].region.vhi[0] = node->entries[0].region.vlo[0];
    });
  }
  // Snapshot the damaged file bytes.
  std::vector<char> before_bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    before_bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(before_bytes.data(), 1, before_bytes.size(), f),
              before_bytes.size());
    std::fclose(f);
  }
  RepairReport report = Repair(path, config, oracle.now, /*dry_run=*/true);
  EXPECT_FALSE(report.before.ok());
  EXPECT_FALSE(report.changed());
  EXPECT_GE(report.bounds_recomputed, 1u);
  EXPECT_FALSE(report.actions.empty());
  std::vector<char> after_bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    after_bytes.resize(static_cast<size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    ASSERT_EQ(std::fread(after_bytes.data(), 1, after_bytes.size(), f),
              after_bytes.size());
    std::fclose(f);
  }
  EXPECT_EQ(before_bytes, after_bytes) << "dry run modified the file";
  // The real repair afterwards still works.
  ExpectRepairRestores(path, config, oracle);
  std::remove(path.c_str());
}

// --- salvage-only classes ------------------------------------------------

TEST(Salvage, BitRotQuarantinesPageAndSalvagesTheRest) {
  const std::string path = ::testing::TempDir() + "/salvage_rot.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 71);
  // Record which oids live on the page about to rot (it may be internal,
  // in which case no records are lost).
  std::set<ObjectId> lost;
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    Page page(config.page_size);
    ASSERT_TRUE(file->ReadPage(2, &page).ok());
    NodeCodec<2> codec(config.page_size, config.StoresVelocities(),
                       config.store_tpbr_expiration);
    Node<2> node;
    codec.Decode(page, &node);
    if (node.IsLeaf()) {
      for (const NodeEntry<2>& e : node.entries) lost.insert(e.id);
    }
  }
  {
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
  // In-place repair must refuse: fixing an unreadable page means
  // guessing at data.
  RepairReport repair = Repair(path, config, oracle.now);
  EXPECT_TRUE(repair.needs_salvage);
  EXPECT_FALSE(repair.ok());

  std::vector<verify::QuarantinedPage> quarantine;
  SalvageReport report = Salvage(path, config, oracle.now, &quarantine);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_EQ(report.pages_quarantined, 1u);
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine[0].page, 2u);
  EXPECT_FALSE(quarantine[0].reason.empty());
  EXPECT_EQ(quarantine[0].frame.size(),
            static_cast<size_t>(config.page_size) + 16);
  EXPECT_TRUE(Fsck(path, config, oracle.now).ok());

  // Everything salvageable survives: the oracle minus the rotted page.
  std::set<ObjectId> got = LiveOids(path, config, oracle.now);
  for (ObjectId oid : oracle.oids()) {
    if (lost.count(oid) == 0) {
      EXPECT_TRUE(got.count(oid) == 1) << "lost salvageable record " << oid;
    }
  }
  for (ObjectId oid : got) {
    EXPECT_TRUE(oracle.live.count(oid) == 1) << "phantom record " << oid;
  }
  std::remove(path.c_str());
}

TEST(Salvage, BothMetaSlotsDamagedRebuildsEverything) {
  const std::string path = ::testing::TempDir() + "/salvage_meta.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  Oracle oracle = BuildDiskIndex(path, config, 600, 0, 101);
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ClobberMetaSlots(file.get());
  }
  // Tree::Open must now point operators at salvage by name.
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    auto opened = Tree<2>::Open(config, file.get());
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("rexp_fsck --salvage"),
              std::string::npos)
        << opened.status().ToString();
    EXPECT_NE(opened.status().message().find("slot 0"), std::string::npos)
        << opened.status().ToString();
  }
  RepairReport repair = Repair(path, config, oracle.now);
  EXPECT_TRUE(repair.needs_salvage);

  std::vector<verify::QuarantinedPage> quarantine;
  SalvageReport report = Salvage(path, config, oracle.now, &quarantine);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_TRUE(quarantine.empty());
  EXPECT_TRUE(Fsck(path, config, oracle.now).ok());
  // No leaf page was damaged: salvage recovers the full oracle exactly.
  EXPECT_EQ(LiveOids(path, config, oracle.now), oracle.oids());
  std::remove(path.c_str());
}

TEST(Salvage, DropsExpiredRecordsAndKeepsLiveOnes) {
  const std::string path = ::testing::TempDir() + "/salvage_expired.bin";
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  // Short-lived records: by `later` a large fraction has expired.
  Oracle oracle;
  {
    std::remove(path.c_str());
    auto file =
        DiskPageFile::Open(path, config.page_size, /*keep=*/true).value();
    auto tree = std::make_unique<Tree<2>>(config, file.get());
    Rng rng(113);
    for (int i = 0; i < 400; ++i) {
      oracle.now += rng.Uniform(0, 0.01);
      Tpbr<2> p = RandomPoint<2>(&rng, oracle.now, /*max_life=*/20.0);
      tree->Insert(static_cast<ObjectId>(i), p, oracle.now);
      oracle.live[static_cast<ObjectId>(i)] = p;
    }
  }
  const Time later = oracle.now + 10.0;
  std::set<ObjectId> still_live;
  for (const auto& [oid, p] : oracle.live) {
    if (p.t_exp > later) still_live.insert(oid);
  }
  ASSERT_FALSE(still_live.empty());
  ASSERT_LT(still_live.size(), oracle.live.size());
  {
    auto file = DiskPageFile::Open(path, config.page_size, true).value();
    ClobberMetaSlots(file.get());
  }
  std::vector<verify::QuarantinedPage> quarantine;
  SalvageReport report = Salvage(path, config, later, &quarantine);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_GT(report.records_dropped_expired, 0u);
  EXPECT_EQ(report.records_salvaged, still_live.size());
  EXPECT_EQ(LiveOids(path, config, later), still_live);
  std::remove(path.c_str());
}

TEST(Salvage, EmptyDamagedFileRebuildsEmptyTree) {
  const std::string path = ::testing::TempDir() + "/salvage_empty.bin";
  std::remove(path.c_str());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  TreeConfig config = SmallPages(TreeConfig::Rexp());
  std::vector<verify::QuarantinedPage> quarantine;
  SalvageReport report = Salvage(path, config, 0, &quarantine);
  EXPECT_TRUE(report.ok()) << report.after.ToString();
  EXPECT_EQ(report.records_salvaged, 0u);
  EXPECT_TRUE(Fsck(path, config, 0).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rexp
