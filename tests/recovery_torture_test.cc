// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Recovery torture tests. A crash-consistent disk-backed tree is driven
// through a mixed insert/delete workload with a write-logging fault
// injector underneath; the log is then replayed up to hundreds of distinct
// crash points — the final write torn, exactly as a power cut mid-sector
// leaves it — and the index is re-opened from each materialised image. At
// every crash point the recovered tree must come back at the last durable
// commit: metadata (dual-slot, epoch-tagged) selects a consistent root,
// structural invariants hold, every page checksum verifies, and queries
// agree exactly with an oracle snapshot taken at that commit.
//
// Separate tests flip bits in data pages and metadata slots directly and
// assert the damage is *reported* (kCorruption / slot failover), never
// silently decoded.
//
// The repair leg re-replays every crash image and pushes it through
// TreeRepairer::Repair before reopening: repair must succeed on every
// image a crash can produce (in-place, never escalating to salvage), and
// the repaired index must still hold exactly the records of the durable
// commit the crash preserved — the oracle diff below is over the full
// inventory, not sampled queries.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "livetier/tiered_index.h"
#include "storage/fault_injection_page_file.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/tree.h"
#include "verify/repair.h"

namespace rexp {
namespace {

using ::rexp::testing::ExpectVerified;
using ::rexp::testing::RandomPoint;
using ::rexp::testing::RandomQuery;

constexpr uint32_t kPageSize = 512;

TreeConfig TortureConfig() {
  TreeConfig config = TreeConfig::Rexp();
  config.page_size = kPageSize;
  config.buffer_frames = 8;
  config.crash_consistent = true;
  return config;
}

// State at one durable commit: everything a post-crash check needs.
struct CommitMarker {
  size_t log_size = 0;        // Write-log length right after the commit.
  uint64_t epoch = 0;         // Meta epoch the commit published.
  Time now = 0;               // Logical time of the commit.
  uint64_t leaf_entries = 0;  // Live entries at the commit.
  ReferenceIndex<2> oracle;   // Query oracle snapshot.
};

using WriteLog = std::vector<FaultInjectionPageFile::WriteEvent>;

// Materialises the disk image a crash at `crash_point` would leave:
// events [0, crash_point-1) applied in full, the final event applied torn
// (a seeded prefix of the frame; grows — pure file extension — apply
// whole). `dev` must be an empty device of the right page size.
void ReplayWithCrash(const WriteLog& log, size_t crash_point, uint64_t seed,
                     PageFile* dev) {
  ASSERT_GE(crash_point, 1u);
  ASSERT_LE(crash_point, log.size());
  auto apply_full = [&](const FaultInjectionPageFile::WriteEvent& ev) {
    if (ev.grow) {
      ASSERT_EQ(dev->Allocate().value(), ev.id);
    } else {
      ASSERT_TRUE(dev->WriteFrame(ev.id, ev.frame.data()).ok());
    }
  };
  for (size_t i = 0; i + 1 < crash_point; ++i) apply_full(log[i]);
  const auto& last = log[crash_point - 1];
  if (last.grow) {
    ASSERT_EQ(dev->Allocate().value(), last.id);
    return;
  }
  // Torn final write: a prefix of the new frame lands, the tail keeps
  // whatever the device held before.
  Rng rng(seed);
  std::vector<uint8_t> frame(dev->frame_size(), 0);
  ASSERT_TRUE(dev->ReadFrame(last.id, frame.data()).ok());
  const size_t prefix = rng.UniformInt(dev->frame_size());
  std::memcpy(frame.data(), last.frame.data(), prefix);
  ASSERT_TRUE(dev->WriteFrame(last.id, frame.data()).ok());
}

// Opens the replayed image and checks full recovery against the markers.
// Returns the marker the recovery landed on (nullptr if open legitimately
// failed because nothing was ever durably committed).
const CommitMarker* CheckRecovery(size_t crash_point,
                                  const std::vector<CommitMarker>& markers,
                                  PageFile* dev) {
  // The newest marker whose commit is fully contained in the applied
  // prefix. The torn final write can additionally complete marker m2
  // "by luck" (its missing tail may coincide with what the device held),
  // so an epoch one commit newer is also acceptable if and only if the
  // torn event was that commit's metadata write.
  const CommitMarker* m1 = nullptr;
  const CommitMarker* m2 = nullptr;
  for (const auto& m : markers) {
    if (m.log_size <= crash_point - 1) m1 = &m;
    if (m.log_size <= crash_point) m2 = &m;
  }

  auto tree_or = Tree<2>::Open(TortureConfig(), dev);
  if (!tree_or.ok()) {
    // Only acceptable before the first durable commit.
    EXPECT_EQ(m1, nullptr)
        << "crash point " << crash_point
        << ": open failed despite a durable commit at epoch " << m1->epoch
        << ": " << tree_or.status().ToString();
    EXPECT_TRUE(tree_or.status().IsCorruption())
        << tree_or.status().ToString();
    return nullptr;
  }
  auto tree = std::move(tree_or).value();

  const CommitMarker* m = nullptr;
  if (m1 != nullptr && tree->meta_epoch() == m1->epoch) m = m1;
  if (m == nullptr && m2 != m1 && m2 != nullptr &&
      tree->meta_epoch() == m2->epoch) {
    m = m2;
  }
  EXPECT_NE(m, nullptr) << "crash point " << crash_point
                        << ": recovered to unexpected epoch "
                        << tree->meta_epoch();
  if (m == nullptr) return nullptr;

  EXPECT_EQ(tree->leaf_entries(), m->leaf_entries)
      << "crash point " << crash_point << " epoch " << m->epoch;
  SCOPED_TRACE(::testing::Message() << "crash point " << crash_point);
  ExpectVerified(*tree, m->now);

  // Queries against the oracle snapshot taken at that commit.
  Rng rng(0x9e3779b9u + crash_point);
  for (int q = 0; q < 4; ++q) {
    Query<2> query = RandomQuery<2>(&rng, m->now, 15.0, 250.0);
    std::vector<ObjectId> got, want;
    tree->Search(query, &got);
    m->oracle.Search(query, &want);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "crash point " << crash_point << " query " << q
                         << " diverged from oracle at epoch " << m->epoch;
  }
  return m;
}

// Repairs a freshly-replayed crash image in place, reopens it, and
// asserts the full record inventory of the durable commit `m` survived.
// A crash image is always in-place repairable: crash consistency
// guarantees every page the committed root reaches was fully written, so
// the worst the verifier can find is accounting damage (a torn meta
// slot, an unaccounted grown tail) — never lost data.
void CheckRepairedImageKeepsRecords(size_t crash_point,
                                    const CommitMarker& m, PageFile* dev) {
  verify::RepairOptions options;
  options.verify.now = m.now;
  auto rep_or = verify::TreeRepairer<2>::Repair(dev, TortureConfig(),
                                                options);
  ASSERT_TRUE(rep_or.ok()) << "crash point " << crash_point << ": "
                           << rep_or.status().ToString();
  const verify::RepairReport rep = std::move(rep_or).value();
  EXPECT_FALSE(rep.needs_salvage)
      << "crash point " << crash_point
      << ": crash image escalated to salvage";
  EXPECT_TRUE(rep.ok()) << "crash point " << crash_point
                        << ": repaired image not clean: "
                        << rep.after.ToString();
  EXPECT_EQ(rep.records_dropped_noncanonical, 0u)
      << "crash point " << crash_point
      << ": repair dropped durably committed records";

  auto tree_or = Tree<2>::Open(TortureConfig(), dev);
  ASSERT_TRUE(tree_or.ok()) << "crash point " << crash_point << ": "
                            << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();
  // Full-inventory diff: every unexpired record of the commit, exactly.
  Query<2> everything =
      Query<2>::Timeslice(Rect<2>::Cube({500.0, 500.0}, 1e5), m.now);
  std::vector<ObjectId> got, want;
  tree->Search(everything, &got);
  m.oracle.Search(everything, &want);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "crash point " << crash_point
                       << ": repaired inventory diverged from the commit "
                       << "at epoch " << m.epoch;
}

TEST(RecoveryTorture, SurvivesCrashesAtHundredsOfWritePoints) {
  // ---- Drive phase: real workload over a logging injector on disk. ----
  std::string path = ::testing::TempDir() + "/rexp_torture_drive.bin";
  std::remove(path.c_str());
  auto disk = DiskPageFile::Open(path, kPageSize).value();
  FaultInjectionPageFile::Options opt;
  opt.record_write_log = true;
  FaultInjectionPageFile injector(disk.get(), opt);

  auto tree = Tree<2>::Open(TortureConfig(), &injector).value();
  ReferenceIndex<2> oracle;
  Rng rng(4242);
  Time now = 0;
  std::vector<CommitMarker> markers;
  auto record_marker = [&] {
    CommitMarker m;
    m.log_size = injector.write_log().size();
    m.epoch = tree->meta_epoch();
    m.now = now;
    m.leaf_entries = tree->leaf_entries();
    m.oracle = oracle;
    markers.push_back(std::move(m));
  };
  record_marker();  // The initial (empty-tree) commit from Open.

  struct Rec {
    ObjectId oid;
    Tpbr<2> point;
  };
  std::vector<Rec> live;
  ObjectId next_oid = 0;
  for (int op = 0; op < 220; ++op) {
    now += rng.Uniform(0, 0.1);
    if (rng.NextDouble() < 0.65 || live.empty()) {
      Rec r{next_oid++, RandomPoint<2>(&rng, now, 25.0)};
      tree->Insert(r.oid, r.point, now);
      oracle.Insert(r.oid, r.point);
      live.push_back(r);
    } else {
      size_t k = rng.UniformInt(live.size());
      // Expired entries may already be purged; tree and oracle must agree.
      bool a = tree->Delete(live[k].oid, live[k].point, now);
      bool b = oracle.Delete(live[k].oid, live[k].point, now);
      ASSERT_EQ(a, b);
      live[k] = live.back();
      live.pop_back();
    }
    record_marker();  // Every op commits in crash-consistent mode.
  }
  ExpectVerified(*tree, now);
  const WriteLog log = injector.write_log();  // Freeze before teardown.
  ASSERT_GT(log.size(), 400u) << "workload produced too few device writes";

  // ---- Crash point selection: every metadata-slot write (torn meta
  // commits are the protocol's hardest case) plus an even sweep over the
  // rest of the log. ----
  std::vector<size_t> crash_points;
  size_t meta_points = 0;
  for (size_t i = 0; i < log.size(); ++i) {
    if (!log[i].grow && log[i].id < 2) {
      crash_points.push_back(i + 1);  // Crash *during* this meta write.
      ++meta_points;
    }
  }
  const size_t step = std::max<size_t>(1, log.size() / 120);
  for (size_t c = 1; c <= log.size(); c += step) crash_points.push_back(c);
  std::sort(crash_points.begin(), crash_points.end());
  crash_points.erase(
      std::unique(crash_points.begin(), crash_points.end()),
      crash_points.end());
  ASSERT_GE(crash_points.size(), 120u);
  ASSERT_GE(meta_points, 30u);

  // ---- Replay phase: recover at every crash point. Most replays use a
  // memory device for speed; every 16th materialises a real file so the
  // disk open/recovery path is exercised end to end. ----
  size_t recovered_nonempty = 0;
  size_t replay_index = 0;
  for (size_t c : crash_points) {
    const uint64_t tear_seed = 0xfeedULL * 31 + c;
    const CommitMarker* m = nullptr;
    if (replay_index % 16 == 0) {
      std::string rpath = ::testing::TempDir() + "/rexp_torture_replay.bin";
      std::remove(rpath.c_str());
      auto rdisk = DiskPageFile::Open(rpath, kPageSize).value();
      ReplayWithCrash(log, c, tear_seed, rdisk.get());
      m = CheckRecovery(c, markers, rdisk.get());
    } else {
      MemoryPageFile rmem(kPageSize);
      ReplayWithCrash(log, c, tear_seed, &rmem);
      m = CheckRecovery(c, markers, &rmem);
    }
    if (m != nullptr && m->leaf_entries > 0) ++recovered_nonempty;
    if (m != nullptr) {
      // Repair leg: a second pristine replay of the same crash, repaired
      // in place, must keep every record of the recovered commit.
      MemoryPageFile rmem(kPageSize);
      ReplayWithCrash(log, c, tear_seed, &rmem);
      CheckRepairedImageKeepsRecords(c, *m, &rmem);
    }
    ++replay_index;
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_GT(recovered_nonempty, crash_points.size() / 2)
      << "most crash points should recover a non-empty committed tree";
}

// ---------------------------------------------------------------------
// Live-tier crash semantics (DESIGN.md §12): a crash loses exactly the
// records still resident in the in-memory tier — never a migrated one —
// and the surviving tree is structurally clean.

void CopyFileBytes(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  ASSERT_NE(in, nullptr);
  std::FILE* out = std::fopen(to.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  char buf[8192];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    ASSERT_EQ(std::fwrite(buf, 1, n, out), n);
  }
  ASSERT_EQ(std::fclose(out), 0);
  std::fclose(in);
}

// A random point whose expiry is far in the future, so migration never
// skips it as dying (RandomPoint draws lifetimes down to 0.01).
Tpbr<2> LongLivedPoint(Rng* rng, Time now) {
  Tpbr<2> p = RandomPoint<2>(rng, now, 500.0);
  p.t_exp = now + 1e4;
  return p;
}

TEST(RecoveryTorture, TieredCrashLosesOnlyUnmigratedRecords) {
  std::string path = ::testing::TempDir() + "/rexp_tiered_crash.bin";
  std::string crash_path = path + ".crash";
  std::remove(path.c_str());
  std::remove(crash_path.c_str());
  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();

  LiveTierOptions live_opt;
  live_opt.migrate_age = 1.0;
  Rng rng(0xC4A5);
  Time now = 0;
  std::vector<ObjectId> migrated;
  {
  TieredIndex<2> index(TortureConfig(), file.get(), live_opt);

  // Group A: long-lived records, migrated into the tree before the crash.
  for (ObjectId oid = 0; oid < 120; ++oid) {
    now += 0.01;
    index.Insert(oid, LongLivedPoint(&rng, now), now);
    migrated.push_back(oid);
  }
  now = 5.0;
  ASSERT_EQ(index.DrainLiveTier(now), migrated.size());
  for (ObjectId oid : migrated) ASSERT_FALSE(index.live_tier().Owns(oid));

  // Group B: fresh reports, still resident when the crash hits.
  for (ObjectId oid = 1000; oid < 1080; ++oid) {
    now += 0.01;
    index.Insert(oid, LongLivedPoint(&rng, now), now);
  }
  // Group C: short-expiry records that die in place before the crash.
  for (ObjectId oid = 2000; oid < 2030; ++oid) {
    index.Insert(oid, RandomPoint<2>(&rng, now, 0.5), now);
  }
  now = 8.0;
  index.Insert(1080, LongLivedPoint(&rng, now), now);  // Pops expiry.
  EXPECT_EQ(index.live_tier().stats().died_in_place, 30u);
  ASSERT_EQ(index.live_tier().resident(), 81u);  // B plus the poker.

  // Durable commit, then a crash: the live tier evaporates. Snapshot the
  // on-disk bytes while the process still holds B in memory — that image
  // is exactly what a power cut would leave.
  ASSERT_TRUE(index.Commit().ok());
  CopyFileBytes(path, crash_path);
  }  // "Crash": the index (and the live tier with it) goes away.

  auto crashed = DiskPageFile::Open(crash_path, kPageSize,
                                    /*keep=*/true).value();
  auto tree_or = Tree<2>::Open(TortureConfig(), crashed.get());
  ASSERT_TRUE(tree_or.ok()) << tree_or.status().ToString();
  auto tree = std::move(tree_or).value();

  // fsck-clean: structural invariants and every page checksum.
  ExpectVerified(*tree, now);

  // The DAT rebuilt at open must mirror the physical leaf level — the
  // post-migration leaf walk and the rebuilt table agree exactly.
  EXPECT_EQ(tree->op_stats().dat_rebuilds.load(), 1u);
  std::vector<verify::DatSnapshotEntry> dat = tree->DatSnapshotForTest();
  EXPECT_EQ(dat.size(), migrated.size());

  // Inventory: every migrated record survived; every un-migrated and
  // died-in-place record is gone. Nothing else.
  Query<2> everything =
      Query<2>::Timeslice(Rect<2>::Cube({500.0, 500.0}, 1e5), now);
  std::vector<ObjectId> got;
  tree->Search(everything, &got);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, migrated);

  // The crash image reopens as a TieredIndex and keeps working: re-report
  // the lost group, drain, and the full inventory is back.
  tree.reset();
  {
    TieredIndex<2> reopened(TortureConfig(), crashed.get(), live_opt);
    for (ObjectId oid = 1000; oid < 1081; ++oid) {
      now += 0.01;
      reopened.Insert(oid, LongLivedPoint(&rng, now), now);
    }
    now += 5.0;
    reopened.DrainLiveTier(now);
    // Query and check at drain time: tree bounds tightened at migration
    // are only guaranteed to contain their entries from then on.
    Query<2> later =
        Query<2>::Timeslice(Rect<2>::Cube({500.0, 500.0}, 1e5), now);
    std::vector<ObjectId> after;
    reopened.Search(later, &after);
    EXPECT_EQ(after.size(), migrated.size() + 81u);
    ExpectVerified(reopened, now);
    ASSERT_TRUE(reopened.Commit().ok());
  }

  crashed.reset();
  file.reset();
  std::remove(path.c_str());
  std::remove(crash_path.c_str());
}

// Flip one byte in a raw frame of a (closed) index file.
void FlipByteOnDisk(const std::string& path, uint64_t byte_offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(byte_offset), SEEK_SET), 0);
  int ch = std::fgetc(f);
  ASSERT_NE(ch, EOF);
  ASSERT_EQ(std::fseek(f, static_cast<long>(byte_offset), SEEK_SET), 0);
  ASSERT_NE(std::fputc(ch ^ 0x10, f), EOF);
  ASSERT_EQ(std::fclose(f), 0);
}

struct BuiltIndex {
  uint64_t final_epoch = 0;   // The destructor's closing commit included.
  uint64_t leaf_entries = 0;  // Entries physically at the leaf level
                              // (expired-but-unpurged ones included).
  Time now = 0;
};

// Builds a committed index at `path` and reports its final durable state.
BuiltIndex BuildIndexOnDisk(const std::string& path) {
  std::remove(path.c_str());
  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  auto tree = Tree<2>::Open(TortureConfig(), file.get()).value();
  Rng rng(99);
  Time now = 0;
  for (ObjectId oid = 0; oid < 150; ++oid) {
    now += 0.05;
    tree->Insert(oid, RandomPoint<2>(&rng, now, 30.0), now);
  }
  BuiltIndex built;
  built.final_epoch = tree->meta_epoch() + 1;  // +1: closing commit.
  built.leaf_entries = tree->leaf_entries();
  built.now = now;
  tree.reset();
  return built;
}

TEST(RecoveryTorture, BitRotInDataPageIsReportedAsCorruption) {
  std::string path = ::testing::TempDir() + "/rexp_torture_rot.bin";
  BuiltIndex built = BuildIndexOnDisk(path);
  const uint64_t frame_size = kPageSize + kPageHeaderSize;

  // Flip one bit in every non-meta page: whatever page the root landed
  // on, the damage must surface as kCorruption — silent decoding of a
  // rotten page is the one forbidden outcome.
  uint64_t capacity;
  {
    auto probe = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
    capacity = probe->capacity_pages();
  }
  ASSERT_GT(capacity, 2u);
  for (PageId id = 2; id < capacity; ++id) {
    FlipByteOnDisk(path, id * frame_size + kPageHeaderSize + 37);
  }

  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  auto tree_or = Tree<2>::Open(TortureConfig(), file.get());
  if (tree_or.ok()) {
    // Metadata was intact; the damage must be caught on page access.
    auto tree = std::move(tree_or).value();
    EXPECT_EQ(tree->meta_epoch(), built.final_epoch);
    EXPECT_FALSE(tree->Verify(built.now).ok())
        << "rotten pages verified clean";
  } else {
    EXPECT_TRUE(tree_or.status().IsCorruption())
        << tree_or.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(RecoveryTorture, DamagedNewestMetaSlotFailsOverToOlder) {
  std::string path = ::testing::TempDir() + "/rexp_torture_meta1.bin";
  BuiltIndex built = BuildIndexOnDisk(path);
  const uint64_t frame_size = kPageSize + kPageHeaderSize;

  // The newest slot holds the final epoch (slot parity == epoch parity).
  const PageId newest_slot = static_cast<PageId>(built.final_epoch & 1);
  FlipByteOnDisk(path, newest_slot * frame_size + kPageHeaderSize + 24);

  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  auto tree = Tree<2>::Open(TortureConfig(), file.get()).value();
  EXPECT_EQ(tree->meta_epoch(), built.final_epoch - 1)
      << "recovery did not fail over to the older slot";
  EXPECT_GE(tree->meta_slot_errors(), 1);
  // No operations ran between the two final commits, so the older slot
  // describes the same tree contents.
  EXPECT_EQ(tree->leaf_entries(), built.leaf_entries);
  ExpectVerified(*tree, built.now);
  tree.reset();
  file.reset();
  std::remove(path.c_str());
}

TEST(RecoveryTorture, BothMetaSlotsDamagedIsReportedNotGuessed) {
  std::string path = ::testing::TempDir() + "/rexp_torture_meta2.bin";
  BuildIndexOnDisk(path);
  const uint64_t frame_size = kPageSize + kPageHeaderSize;
  FlipByteOnDisk(path, 0 * frame_size + kPageHeaderSize + 24);
  FlipByteOnDisk(path, 1 * frame_size + kPageHeaderSize + 24);

  auto file = DiskPageFile::Open(path, kPageSize, /*keep=*/true).value();
  auto tree_or = Tree<2>::Open(TortureConfig(), file.get());
  ASSERT_FALSE(tree_or.ok()) << "opened an index with no valid metadata";
  EXPECT_TRUE(tree_or.status().IsCorruption())
      << tree_or.status().ToString();
  file.reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rexp
