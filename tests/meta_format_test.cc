// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the tree's two-slot meta page: a damage matrix that pins how
// every reader of the page (Tree::Open, TreeVerifier::VerifyFile,
// TreeRepairer::Repair, partition::VerifyPartitioned) judges each class
// of meta damage, plus golden hashes of the bytes the tree commits and
// repair rewrites.
//
// The seeding below spells out the payload offsets on its own instead of
// using tree/meta_format.h: the test is a second, independent witness of
// the on-disk layout, so a codec change that moves a field fails here.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "partition/partition_verify.h"
#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/tree.h"
#include "verify/repair.h"
#include "verify/verifier.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomPoint;

// Meta payload layout (DESIGN.md §6), spelled out independently.
constexpr uint32_t kMagicAt = 0;
constexpr uint32_t kVersionAt = 4;
constexpr uint32_t kDimsAt = 8;
constexpr uint32_t kEpochAt = 16;
constexpr uint32_t kRootAt = 24;
constexpr uint32_t kHeightAt = 28;
constexpr uint32_t kCommittedAt = 32;
constexpr uint32_t kFreeCountAt = 216;
constexpr uint32_t kFreeIdsAt = 228;

constexpr uint32_t kPageSize = 512;

TreeConfig MatrixConfig() {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = kPageSize;
  config.buffer_frames = 16;
  // Every operation commits, so the older slot holds a consistent state
  // one operation behind the newest.
  config.crash_consistent = true;
  return config;
}

std::vector<char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Fnv1a(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

// The slot holding the highest epoch of a healthy file.
PageId NewestSlot(PageFile* file) {
  Page a(file->page_size());
  Page b(file->page_size());
  EXPECT_TRUE(file->ReadPage(0, &a).ok());
  EXPECT_TRUE(file->ReadPage(1, &b).ok());
  return a.Read<uint64_t>(kEpochAt) > b.Read<uint64_t>(kEpochAt) ? 0 : 1;
}

uint64_t NewestSlotHash(const std::string& path) {
  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  Page page(kPageSize);
  EXPECT_TRUE(file->ReadPage(NewestSlot(file.get()), &page).ok());
  return Fnv1a(page.data(), page.size());
}

// Builds a 2-d index with free pages: inserts, then deletes.
void BuildTreeFile(const std::string& path) {
  std::remove(path.c_str());
  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  auto tree = Tree<2>::Open(MatrixConfig(), file.get()).value();
  Rng rng(2026);
  std::vector<std::pair<ObjectId, Tpbr<2>>> live;
  Time now = 0;
  for (int i = 0; i < 240; ++i) {
    now += 0.01;
    const Tpbr<2> p = RandomPoint<2>(&rng, now, /*max_life=*/1000.0);
    tree->Insert(static_cast<ObjectId>(i), p, now);
    live.push_back({static_cast<ObjectId>(i), p});
  }
  for (int i = 0; i < 120; ++i) {
    const size_t k = rng.UniformInt(live.size());
    if (live[k].second.t_exp > now) {
      EXPECT_TRUE(tree->Delete(live[k].first, live[k].second, now));
    }
    live[k] = live.back();
    live.pop_back();
  }
}

enum class Damage {
  kAllZero,
  kBadMagic,
  kBadVersion,
  kOtherDims,
  kParity,
  kEpochZero,
  kHeightTooLarge,
  kRootHeightMismatch,
  kCapacityBeyondDevice,
  kRootOutOfRange,
  kFreeListOverrun,
  kFreeListIdOutOfRange,
};

// raw-page-ok: edits a local copy of a slot, written back by Seed.
void DamageSlot(Damage damage, uint64_t device_pages, Page* page) {
  const uint64_t committed = page->Read<uint64_t>(kCommittedAt);
  switch (damage) {
    case Damage::kAllZero:
      page->Clear();
      break;
    case Damage::kBadMagic:
      page->Write<uint32_t>(kMagicAt, 0xdeadbeef);
      break;
    case Damage::kBadVersion:
      page->Write<uint32_t>(kVersionAt, 99);
      break;
    case Damage::kOtherDims:
      page->Write<uint32_t>(kDimsAt, 3);
      break;
    case Damage::kParity:
      page->Write<uint64_t>(kEpochAt, page->Read<uint64_t>(kEpochAt) + 1);
      break;
    case Damage::kEpochZero:
      page->Write<uint64_t>(kEpochAt, 0);
      break;
    case Damage::kHeightTooLarge:
      page->Write<uint32_t>(kHeightAt, 21);
      break;
    case Damage::kRootHeightMismatch:
      page->Write<uint32_t>(kRootAt, kInvalidPageId);
      break;
    case Damage::kCapacityBeyondDevice:
      page->Write<uint64_t>(kCommittedAt, device_pages + 100);
      break;
    case Damage::kRootOutOfRange:
      // Shrink the committed extent to end at the root.
      page->Write<uint64_t>(kCommittedAt, page->Read<uint32_t>(kRootAt));
      break;
    case Damage::kFreeListOverrun:
      page->Write<uint32_t>(kFreeCountAt,
                            (page->size() - kFreeIdsAt) / 4 + 1);
      break;
    case Damage::kFreeListIdOutOfRange:
      page->Write<uint32_t>(
          kFreeCountAt,
          std::max<uint32_t>(page->Read<uint32_t>(kFreeCountAt), 1));
      page->Write<uint32_t>(kFreeIdsAt, static_cast<PageId>(committed + 7));
      break;
  }
}

// Seeds `damage` into the newest slot of the index at `path`, or into
// both slots.
void Seed(const std::string& path, Damage damage, bool both) {
  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  const PageId newest = NewestSlot(file.get());
  for (PageId slot = 0; slot < 2; ++slot) {
    if (!both && slot != newest) continue;
    Page page(kPageSize);
    ASSERT_TRUE(file->ReadPage(slot, &page).ok());
    DamageSlot(damage, file->capacity_pages(), &page);
    ASSERT_TRUE(file->WritePage(slot, page).ok());
  }
}

std::string Checks(const verify::Report& report) {
  std::set<std::string> names;
  for (const verify::Finding& f : report.findings) {
    names.insert(verify::CheckIdName(f.check));
  }
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ",") + n;
  return out.empty() ? "clean" : out;
}

struct Row {
  Damage damage;
  bool both;
  // "<Tree::Open> | <VerifyFile> | <Repair> | <VerifyPartitioned>"
  const char* verdict;
};

// The verdicts every reader of the meta page reaches, per damage class.
// Tree::Open: status code (and meta_slot_errors() when it opens).
// VerifyFile: finding classes and damaged_meta_slots. Repair: whether it
// needs salvage, else whether the repaired file verifies clean.
// VerifyPartitioned: finding classes with the damage in partition 0.
const Row kMatrix[] = {
    {Damage::kAllZero, false,
     "OK errors=0 | clean damaged=0 | repaired | clean"},
    {Damage::kBadMagic, false,
     "OK errors=1 | clean damaged=1 | repaired | clean"},
    {Damage::kBadVersion, false,
     "OK errors=1 | clean damaged=1 | repaired | clean"},
    {Damage::kOtherDims, false,
     "OK errors=1 | clean damaged=1 | repaired | clean"},
    {Damage::kParity, false,
     "OK errors=1 | clean damaged=1 | repaired | clean"},
    {Damage::kEpochZero, false,
     "OK errors=1 | clean damaged=1 | repaired | clean"},
    {Damage::kHeightTooLarge, false,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kRootHeightMismatch, false,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kCapacityBeyondDevice, false,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kRootOutOfRange, false,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kFreeListOverrun, false,
     "Corruption | meta-slot damaged=0 | repaired | meta-slot"},
    {Damage::kFreeListIdOutOfRange, false,
     "Corruption | free-list damaged=0 | repaired | free-list"},
    {Damage::kAllZero, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kBadMagic, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kBadVersion, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kOtherDims, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kParity, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kEpochZero, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kHeightTooLarge, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kRootHeightMismatch, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kCapacityBeyondDevice, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kRootOutOfRange, true,
     "Corruption | meta-slot damaged=0 | needs_salvage | meta-slot"},
    {Damage::kFreeListOverrun, true,
     "Corruption | meta-slot damaged=0 | repaired | meta-slot"},
    {Damage::kFreeListIdOutOfRange, true,
     "Corruption | free-list damaged=0 | repaired | free-list"},
};

class MetaMatrix : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: ctest runs the tests of this suite concurrently.
    base_ = ::testing::TempDir() + "/rexp_meta_matrix." +
            std::to_string(getpid());
    BuildTreeFile(TreePath());
    tree_bytes_ = ReadBytes(TreePath());

    for (int i = 0; i < 2; ++i) std::remove(PartPath(i).c_str());
    std::remove(ManifestPath().c_str());
    {
      PartitionedOptions options;
      options.partitions = 2;
      options.retune_every = 0;
      options.query_threads = -1;
      auto index = PartitionedIndex<2>::OpenDisk(MatrixConfig(),
                                                 base_ + ".part", options)
                       .value();
      Rng rng(7);
      for (int i = 0; i < 150; ++i) {
        index->Insert(static_cast<ObjectId>(i),
                      RandomPoint<2>(&rng, 0.0, /*max_life=*/1000.0), 0.0);
      }
    }
    part0_bytes_ = ReadBytes(PartPath(0));
  }

  void TearDown() override {
    std::remove(TreePath().c_str());
    for (int i = 0; i < 2; ++i) std::remove(PartPath(i).c_str());
    std::remove(ManifestPath().c_str());
  }

  std::string TreePath() const { return base_ + ".bin"; }
  std::string PartPath(int i) const {
    return base_ + ".part.p" + std::to_string(i);
  }
  std::string ManifestPath() const { return base_ + ".part.manifest"; }

  // A fresh copy of the healthy tree file with `row`'s damage seeded.
  void SeedTree(const Row& row) const {
    WriteBytes(TreePath(), tree_bytes_);
    Seed(TreePath(), row.damage, row.both);
  }

  std::string Verdict(const Row& row) const {
    const TreeConfig config = MatrixConfig();
    verify::VerifyOptions vopt;
    vopt.now = 2.5;
    std::string out;

    SeedTree(row);
    {
      auto file = DiskPageFile::Open(TreePath(), kPageSize, true).value();
      auto tree = Tree<2>::Open(config, file.get());
      out += StatusCodeName(tree.status().code());
      if (tree.ok()) {
        out += " errors=" + std::to_string(tree.value()->meta_slot_errors());
      }
    }
    SeedTree(row);
    {
      auto file = DiskPageFile::Open(TreePath(), kPageSize, true).value();
      verify::Report r =
          verify::TreeVerifier<2>::VerifyFile(file.get(), config, vopt);
      out += " | " + Checks(r) +
             " damaged=" + std::to_string(r.damaged_meta_slots);
    }
    SeedTree(row);
    {
      auto file = DiskPageFile::Open(TreePath(), kPageSize, true).value();
      verify::RepairOptions ropt;
      ropt.verify = vopt;
      auto r = verify::TreeRepairer<2>::Repair(file.get(), config, ropt);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (r.ok()) {
        out += r.value().needs_salvage
                   ? " | needs_salvage"
                   : (r.value().after.ok() ? " | repaired" : " | unrepaired");
      }
    }
    WriteBytes(PartPath(0), part0_bytes_);
    Seed(PartPath(0), row.damage, row.both);
    {
      verify::Report r = partition::VerifyPartitioned<2>(ManifestPath(),
                                                         config, vopt);
      out += " | " + Checks(r);
    }
    return out;
  }

  std::string base_;
  std::vector<char> tree_bytes_;
  std::vector<char> part0_bytes_;
};

TEST_F(MetaMatrix, HealthyFilesVerifyClean) {
  WriteBytes(TreePath(), tree_bytes_);
  auto file = DiskPageFile::Open(TreePath(), kPageSize, true).value();
  verify::VerifyOptions vopt;
  vopt.now = 2.5;
  verify::Report r =
      verify::TreeVerifier<2>::VerifyFile(file.get(), MatrixConfig(), vopt);
  EXPECT_TRUE(r.ok()) << r.ToString();
  Page page(kPageSize);
  ASSERT_TRUE(file->ReadPage(NewestSlot(file.get()), &page).ok());
  EXPECT_GT(page.Read<uint32_t>(kFreeCountAt), 0u)
      << "the build must leave free pages for the free-list rows";
  EXPECT_GE(page.Read<uint32_t>(kHeightAt), 2u);
}

TEST_F(MetaMatrix, EveryReaderKeepsItsVerdict) {
  int i = 0;
  for (const Row& row : kMatrix) {
    EXPECT_EQ(Verdict(row), row.verdict) << "row " << i;
    ++i;
  }
}

// The committed slot's bytes after a fixed seeded build, and the slot
// Repair rewrites after a level-count fault, hashed. A change to either
// is an on-disk format change.
TEST_F(MetaMatrix, GoldenMetaBytes) {
  WriteBytes(TreePath(), tree_bytes_);
  EXPECT_EQ(NewestSlotHash(TreePath()), 8422816097308185599ull);

  {
    auto file = DiskPageFile::Open(TreePath(), kPageSize, true).value();
    const PageId slot = NewestSlot(file.get());
    Page page(kPageSize);
    ASSERT_TRUE(file->ReadPage(slot, &page).ok());
    // Inflate the persisted leaf-level entry count (offset 56).
    page.Write<uint64_t>(56, page.Read<uint64_t>(56) + 5);
    ASSERT_TRUE(file->WritePage(slot, page).ok());
    verify::RepairOptions ropt;
    ropt.verify.now = 2.5;
    auto r = verify::TreeRepairer<2>::Repair(file.get(), MatrixConfig(),
                                             ropt);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().ok()) << r.value().after.ToString();
    EXPECT_TRUE(r.value().meta_rewritten);
  }
  EXPECT_EQ(NewestSlotHash(TreePath()), 8065819785183522828ull);
}

// Reads of one page fail at the device; everything else passes through.
class FailingPageFile final : public PageFile {
 public:
  FailingPageFile(PageFile* inner, PageId broken)
      : PageFile(inner->page_size()), inner_(inner), broken_(broken) {
    capacity_ = inner->capacity_pages();
    RestoreAllocated(capacity_);
  }
  Status ReadFrame(PageId id, uint8_t* frame) override {
    if (id == broken_) return Status::IOError("injected read failure");
    return inner_->ReadFrame(id, frame);
  }
  Status WriteFrame(PageId id, const uint8_t* frame) override {
    return inner_->WriteFrame(id, frame);
  }
  Status GrowDevice(PageId id) override { return inner_->GrowDevice(id); }

 private:
  PageFile* inner_;
  PageId broken_;
};

// A device error on the newest slot: Tree fails the open, the verifier
// reports it, and repair carries on from the older slot.
TEST_F(MetaMatrix, DeviceErrorOnNewestSlot) {
  const TreeConfig config = MatrixConfig();
  verify::VerifyOptions vopt;
  vopt.now = 2.5;
  auto open_broken = [this] {
    WriteBytes(TreePath(), tree_bytes_);
    return DiskPageFile::Open(TreePath(), kPageSize, true).value();
  };
  {
    auto disk = open_broken();
    FailingPageFile file(disk.get(), NewestSlot(disk.get()));
    auto tree = Tree<2>::Open(config, &file);
    EXPECT_TRUE(tree.status().IsIOError()) << tree.status().ToString();
  }
  {
    auto disk = open_broken();
    FailingPageFile file(disk.get(), NewestSlot(disk.get()));
    verify::Report r =
        verify::TreeVerifier<2>::VerifyFile(&file, config, vopt);
    EXPECT_EQ(Checks(r), "meta-slot");
  }
  {
    auto disk = open_broken();
    FailingPageFile file(disk.get(), NewestSlot(disk.get()));
    verify::RepairOptions ropt;
    ropt.verify = vopt;
    ropt.dry_run = true;
    auto r = verify::TreeRepairer<2>::Repair(&file, config, ropt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.value().needs_salvage);
  }
}

// A root past the end of the device is an inconsistent slot to the
// partition checker too: it reports the slot instead of walking off the
// device.
TEST_F(MetaMatrix, PartitionCheckerStopsAtARootBeyondTheDevice) {
  WriteBytes(PartPath(0), part0_bytes_);
  {
    auto file = DiskPageFile::Open(PartPath(0), kPageSize, true).value();
    const PageId slot = NewestSlot(file.get());
    Page page(kPageSize);
    ASSERT_TRUE(file->ReadPage(slot, &page).ok());
    page.Write<uint32_t>(kRootAt,
                         static_cast<PageId>(file->capacity_pages() + 5));
    ASSERT_TRUE(file->WritePage(slot, page).ok());
  }
  verify::VerifyOptions vopt;
  vopt.now = 2.5;
  verify::Report r =
      partition::VerifyPartitioned<2>(ManifestPath(), MatrixConfig(), vopt);
  EXPECT_EQ(Checks(r), "meta-slot");
  EXPECT_FALSE(r.walk_complete);
}

// --- Dimensionality mismatches -------------------------------------------

class MetaDims : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/rexp_meta_dims." +
            std::to_string(getpid()) + ".bin";
    std::remove(path_.c_str());
    TreeConfig config = TreeConfig::Rexp();
    config.page_size = kPageSize;
    auto file = DiskPageFile::Open(path_, kPageSize, true).value();
    auto tree = Tree<3>::Open(config, file.get()).value();
    Rng rng(3);
    for (int i = 0; i < 400; ++i) {
      tree->Insert(static_cast<ObjectId>(i),
                   RandomPoint<3>(&rng, 0.0, /*max_life=*/1000.0), 0.0);
    }
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".salvaged").c_str());
    std::remove((path_ + ".quarantine").c_str());
  }

  // Runs rexp_fsck on the index; returns its exit status.
  int Fsck(const std::string& flags) const {
    const std::string cmd = std::string(REXP_FSCK) + " " + path_ +
                            " --page-size 512 --quiet " + flags +
                            " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  std::string path_;
};

TEST_F(MetaDims, TreeOpenNamesTheRecordedDims) {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = kPageSize;
  auto file = DiskPageFile::Open(path_, kPageSize, true).value();
  auto tree = Tree<2>::Open(config, file.get());
  ASSERT_FALSE(tree.ok());
  const std::string message = tree.status().message();
  EXPECT_NE(message.find("records 3 dims"), std::string::npos) << message;
  EXPECT_EQ(message.find("salvage"), std::string::npos) << message;
}

TEST_F(MetaDims, VerifyFileNamesTheRecordedDims) {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = kPageSize;
  auto file = DiskPageFile::Open(path_, kPageSize, true).value();
  verify::Report r = verify::TreeVerifier<2>::VerifyFile(
      file.get(), config, verify::VerifyOptions{});
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].check, verify::CheckId::kMetaSlot);
  EXPECT_NE(r.findings[0].detail.find("records 3 dims"), std::string::npos)
      << r.findings[0].detail;
}

// rexp_fsck reads the dims from the index, so a healthy 3-d index is
// clean without --dims and a disagreeing --dims writes nothing.
TEST_F(MetaDims, FsckLeavesAHealthyIndexOfOtherDimsAlone) {
  const std::vector<char> before = ReadBytes(path_);
  EXPECT_EQ(Fsck("--salvage"), 0);
  EXPECT_EQ(Fsck("--repair --salvage"), 0);
  EXPECT_EQ(Fsck("--dims 2 --salvage"), 2);
  EXPECT_EQ(Fsck("--dims 3"), 0);
  EXPECT_EQ(ReadBytes(path_), before);
}

}  // namespace
}  // namespace rexp
