// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Concurrency tests: the tree's single-writer / multi-reader epoch
// protocol (DESIGN.md §8), Search fanned out over reader threads, and
// the buffer manager's guard-based pin accounting under
// injected faults.
// Designed to run under ThreadSanitizer (REXP_SANITIZE=thread), where the
// reader/writer churn test doubles as a race detector for the whole
// fetch-decode-search path.

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "sched/shared_mutex.h"
#include "storage/buffer_manager.h"
#include "storage/fault_injection_page_file.h"
#include "storage/page_file.h"
#include "tests/test_util.h"
#include "tree/reference_index.h"
#include "tree/tree.h"

namespace rexp {
namespace {

namespace tu = rexp::testing;

std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Answers `queries` with Tree::Search on min(threads, queries) threads
// that pull query indices from a shared cursor, each Search under its own
// shared epoch; results[i] answers queries[i].
std::vector<std::vector<ObjectId>> SearchOnThreads(
    RexpTree2* tree, const std::vector<Query<2>>& queries, int threads) {
  std::vector<std::vector<ObjectId>> results(queries.size());
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      tree->Search(queries[i], &results[i]);
    }
  };
  const size_t workers = std::min(static_cast<size_t>(threads), queries.size());
  std::vector<std::thread> pool;
  for (size_t t = 0; t < workers; ++t) pool.emplace_back(drain);
  for (std::thread& worker : pool) worker.join();
  return results;
}

// With glibc's reader-preferring rwlock this test hangs: four readers
// re-acquiring back-to-back never let the writer in. sched::SharedMutex
// queues new readers behind a waiting writer, so termination of this
// test IS the starvation-freedom property; the a/b pair checks mutual
// exclusion (readers may never observe a half-applied write).
TEST(SharedMutexTest, WritersMakeProgressAgainstContinuousReaders) {
  sched::SharedMutex mu;
  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> torn_reads{0};
  uint64_t a = 0, b = 0;

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!writers_done.load(std::memory_order_relaxed)) {
        sched::ReaderMutexLock lk(&mu);
        if (a != b) torn_reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    sched::WriterMutexLock lk(&mu);
    ++a;
    ++b;
  }
  writers_done.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_EQ(a, 200u);
  EXPECT_EQ(b, 200u);
}

TEST(ParallelSearchTest, MatchesSequentialSearchAtEveryThreadCount) {
  Rng rng(42);
  const Time now = 0.0;
  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  ReferenceIndex<2> oracle;
  for (ObjectId oid = 0; oid < 500; ++oid) {
    Tpbr<2> p = tu::RandomPoint<2>(&rng, now);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }

  std::vector<Query<2>> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(tu::RandomQuery<2>(&rng, now));

  std::vector<std::vector<ObjectId>> sequential(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    tree.Search(queries[i], &sequential[i]);
  }

  // Thread counts below, at, and above the query count (at most one
  // thread per query runs).
  for (int threads : {1, 3, 4, 128}) {
    auto results = SearchOnThreads(&tree, queries, threads);
    ASSERT_EQ(results.size(), queries.size()) << "threads=" << threads;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(Sorted(results[i]), Sorted(sequential[i]))
          << "threads=" << threads << " query=" << i;
      std::vector<ObjectId> expected;
      oracle.Search(queries[i], &expected);
      EXPECT_EQ(Sorted(results[i]), Sorted(expected))
          << "threads=" << threads << " query=" << i;
    }
  }

  EXPECT_TRUE(SearchOnThreads(&tree, {}, 4).empty());
}

// Regression test for a record-canonicalization bug: records are stored
// on pages in 32-bit precision, so a record handed to Insert with excess
// double precision used to change value on its first evict/reload and
// become unfindable by Delete's exact-match scan. (The bug shipped via a
// GCC 12 -fsanitize=thread wrong-code issue that dropped the
// double->float narrowing in MakeMovingPoint; Insert/Delete now
// canonicalize at the API boundary, so even raw records round-trip.)
TEST(EdgeCaseTest, DeleteMatchesNonCanonicalRecords) {
  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  const Time now = 0.0;

  // None of these values is exactly representable as a float.
  Tpbr<2> raw;
  for (int d = 0; d < 2; ++d) {
    raw.lo[d] = raw.hi[d] = 0.1 + d;
    raw.vlo[d] = raw.vhi[d] = 0.3;
  }
  raw.t_exp = 22.418281851522778;
  tree.Insert(42, raw, now);

  // Enough canonical filler to force splits, evictions, and reloads.
  Rng rng(5);
  for (ObjectId oid = 100; oid < 400; ++oid) {
    tree.Insert(oid, tu::RandomPoint<2>(&rng, now), now);
  }
  tu::ExpectVerified(tree, now);

  std::vector<ObjectId> hits;
  Rect<2> box;
  for (int d = 0; d < 2; ++d) {
    box.lo[d] = -1.0 + d;
    box.hi[d] = 1.0 + d;
  }
  tree.Search(Query<2>::Timeslice(box, now), &hits);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 42), 1);

  // The exact-match delete must succeed with the caller's raw record.
  EXPECT_TRUE(tree.Delete(42, raw, now));
  EXPECT_FALSE(tree.Delete(42, raw, now));

  // Same contract on the bulk-load path.
  MemoryPageFile bulk_file(4096);
  RexpTree2 bulk_tree(TreeConfig::Rexp(), &bulk_file);
  std::vector<RexpTree2::BulkRecord> records;
  records.push_back({42, raw});
  for (ObjectId oid = 100; oid < 200; ++oid) {
    records.push_back({oid, tu::RandomPoint<2>(&rng, now)});
  }
  bulk_tree.BulkLoad(std::move(records), now);
  tu::ExpectVerified(bulk_tree, now);
  EXPECT_TRUE(bulk_tree.Delete(42, raw, now));
}

// The central TSan workload: N reader threads issue queries while the
// main thread churns inserts and deletes. During churn, readers check a
// bracket invariant (every never-expiring "stable" object is found by a
// full-space query; no result id is outside the known universe); after
// the writer quiesces, answers are compared exactly against the oracle.
TEST(ConcurrencyTest, ReadersSeeConsistentStateDuringWriterChurn) {
  constexpr int kStable = 150;
  constexpr ObjectId kChurnBase = 1000;
  constexpr int kChurn = 100;
  constexpr int kReaders = 4;
  constexpr int kChurnRounds = 300;

  Rng rng(7);
  const Time now = 0.0;
  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  ReferenceIndex<2> oracle;

  // Stable objects never expire within the test's horizon.
  for (ObjectId oid = 0; oid < kStable; ++oid) {
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = rng.Uniform(0, tu::kSpace);
      vel[d] = rng.Uniform(-tu::kMaxSpeed, tu::kMaxSpeed);
    }
    Tpbr<2> p = MakeMovingPoint<2>(pos, vel, now, now + 1e9);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }
  // Churn slots: present[i] tracks whether oid kChurnBase + i is live.
  std::vector<Tpbr<2>> churn_rec(kChurn);
  std::vector<bool> present(kChurn, false);
  for (int i = 0; i < kChurn; ++i) {
    churn_rec[i] = tu::RandomPoint<2>(&rng, now);
    tree.Insert(kChurnBase + i, churn_rec[i], now);
    oracle.Insert(kChurnBase + i, churn_rec[i]);
    present[i] = true;
  }

  Rect<2> whole;
  for (int d = 0; d < 2; ++d) {
    whole.lo[d] = -1e7;
    whole.hi[d] = 1e7;
  }
  const Query<2> full_space = Query<2>::Timeslice(whole, now);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> missing_stable{0};
  std::atomic<uint64_t> foreign_oid{0};
  std::atomic<uint64_t> queries_run{0};

  auto is_known = [](ObjectId oid) {
    return oid < kStable ||
           (oid >= kChurnBase && oid < kChurnBase + kChurn);
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng reader_rng(100 + t);
      std::vector<ObjectId> hits;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.clear();
        tree.Search(full_space, &hits);
        std::vector<bool> seen(kStable, false);
        for (ObjectId oid : hits) {
          if (!is_known(oid)) {
            foreign_oid.fetch_add(1, std::memory_order_relaxed);
          } else if (oid < kStable) {
            seen[oid] = true;
          }
        }
        for (int i = 0; i < kStable; ++i) {
          if (!seen[i]) missing_stable.fetch_add(1, std::memory_order_relaxed);
        }
        // A few random small queries: only the universe check applies.
        for (int q = 0; q < 4; ++q) {
          hits.clear();
          tree.Search(tu::RandomQuery<2>(&reader_rng, now), &hits);
          for (ObjectId oid : hits) {
            if (!is_known(oid)) {
              foreign_oid.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        queries_run.fetch_add(5, std::memory_order_relaxed);
      }
    });
  }

  // Writer churn on the main thread: delete-or-insert a random slot.
  // It starts once a reader has finished a round of queries, so the
  // readers provably overlap the churn however the threads are scheduled.
  while (queries_run.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  for (int round = 0; round < kChurnRounds; ++round) {
    int i = static_cast<int>(rng.UniformInt(kChurn));
    ObjectId oid = kChurnBase + i;
    if (present[i]) {
      ASSERT_TRUE(tree.Delete(oid, churn_rec[i], now));
      ASSERT_TRUE(oracle.Delete(oid, churn_rec[i], now));
      present[i] = false;
    } else {
      churn_rec[i] = tu::RandomPoint<2>(&rng, now);
      tree.Insert(oid, churn_rec[i], now);
      oracle.Insert(oid, churn_rec[i]);
      present[i] = true;
    }
    if (round % 64 == 63) {
      ASSERT_TRUE(tree.Commit().ok());
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(missing_stable.load(), 0u);
  EXPECT_EQ(foreign_oid.load(), 0u);
  EXPECT_GT(queries_run.load(), 0u);

  // Quiesced: answers are exact against the oracle, in parallel too.
  std::vector<ObjectId> expected;
  oracle.Search(full_space, &expected);
  std::vector<ObjectId> actual;
  tree.Search(full_space, &actual);
  EXPECT_EQ(Sorted(actual), Sorted(expected));

  std::vector<Query<2>> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(tu::RandomQuery<2>(&rng, now));
  auto results = SearchOnThreads(&tree, queries, kReaders);
  for (size_t i = 0; i < queries.size(); ++i) {
    expected.clear();
    oracle.Search(queries[i], &expected);
    EXPECT_EQ(Sorted(results[i]), Sorted(expected)) << "query " << i;
  }

  tu::ExpectVerified(tree, now);
  // Guard pins balance: only the root pin remains.
  EXPECT_EQ(tree.io_stats().pins - tree.io_stats().unpins, 1u);
}

// Deleting an object that was never inserted — or whose entry has
// expired — must return false and leave the tree untouched, also while
// readers are querying concurrently.
TEST(ConcurrencyTest, DeleteOfAbsentOidUnderConcurrentReaders) {
  Rng rng(11);
  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  ReferenceIndex<2> oracle;
  Time now = 0.0;
  for (ObjectId oid = 0; oid < 200; ++oid) {
    Tpbr<2> p = tu::RandomPoint<2>(&rng, now);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }
  // One short-lived entry we will try to delete after it expires.
  Vec<2> pos{500.0, 500.0}, vel{0.0, 0.0};
  Tpbr<2> ephemeral = MakeMovingPoint<2>(pos, vel, now, now + 0.5);
  tree.Insert(9000, ephemeral, now);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng reader_rng(50 + t);
      std::vector<ObjectId> hits;
      while (!stop.load(std::memory_order_relaxed)) {
        hits.clear();
        tree.Search(tu::RandomQuery<2>(&reader_rng, /*now=*/1.0), &hits);
        for (ObjectId oid : hits) {
          if (oid > 200 && oid != 9000) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  now = 1.0;  // The ephemeral entry is expired from here on.
  const uint64_t misses_before =
      tree.op_stats().delete_misses.load(std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    // Never-inserted oid, record shape borrowed from a live object.
    EXPECT_FALSE(tree.Delete(77777, tu::RandomPoint<2>(&rng, now), now));
    // Expired entry: invisible to the regular delete...
    EXPECT_FALSE(tree.Delete(9000, ephemeral, now));
  }
  EXPECT_EQ(tree.op_stats().delete_misses.load(std::memory_order_relaxed),
            misses_before + 100);
  // ...but reachable with see_expired (scheduled-deletion semantics).
  EXPECT_TRUE(tree.Delete(9000, ephemeral, now, /*see_expired=*/true));
  EXPECT_FALSE(tree.Delete(9000, ephemeral, now, /*see_expired=*/true));

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);

  tu::ExpectVerified(tree, now);
  std::vector<ObjectId> expected, actual;
  Rect<2> whole;
  for (int d = 0; d < 2; ++d) {
    whole.lo[d] = -1e7;
    whole.hi[d] = 1e7;
  }
  oracle.Search(Query<2>::Timeslice(whole, now), &expected);
  tree.Search(Query<2>::Timeslice(whole, now), &actual);
  EXPECT_EQ(Sorted(actual), Sorted(expected));
}

// k-nearest-neighbors with k at or above the number of live entries must
// return exactly the live ones (expired entries filtered), matching the
// oracle's ordering.
TEST(EdgeCaseTest, NearestNeighborsWithKAtLeastLiveCount) {
  Rng rng(23);
  MemoryPageFile file(4096);
  RexpTree2 tree(TreeConfig::Rexp(), &file);
  ReferenceIndex<2> oracle;
  const Time now = 0.0;
  for (ObjectId oid = 0; oid < 5; ++oid) {
    Tpbr<2> p = tu::RandomPoint<2>(&rng, now, /*max_life=*/1e6);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }
  // Entries that expire before the query time.
  for (ObjectId oid = 100; oid < 103; ++oid) {
    Tpbr<2> p = tu::RandomPoint<2>(&rng, now, /*max_life=*/0.5);
    tree.Insert(oid, p, now);
    oracle.Insert(oid, p);
  }

  const Vec<2> origin{0.0, 0.0};
  const Time t = 1.0;  // The three short-lived entries are expired.
  for (int k : {5, 8, 100}) {
    std::vector<ObjectId> actual, expected;
    tree.NearestNeighbors(origin, t, k, &actual);
    oracle.NearestNeighbors(origin, t, k, &expected);
    EXPECT_EQ(actual, expected) << "k=" << k;
    EXPECT_EQ(actual.size(), 5u) << "k=" << k;
  }

  // k of zero and an empty tree are both empty answers.
  std::vector<ObjectId> none;
  tree.NearestNeighbors(origin, t, 0, &none);
  EXPECT_TRUE(none.empty());
  MemoryPageFile empty_file(4096);
  RexpTree2 empty_tree(TreeConfig::Rexp(), &empty_file);
  empty_tree.NearestNeighbors(origin, t, 3, &none);
  EXPECT_TRUE(none.empty());
}

// A fetch that fails at the device must not leak a pin: the frame goes
// back to the free pool and the pin ledger stays balanced (the historic
// manual Pin/Unpin code could leak here; guards cannot).
TEST(BufferPinTest, FailedFetchLeavesNoPins) {
  MemoryPageFile inner(4096);
  FaultInjectionPageFile::Options opt;
  opt.read_error_p = 1.0;
  FaultInjectionPageFile file(&inner, opt);
  PageId id = file.Allocate().value();
  BufferManager buffer(&file, 4);

  auto fetched = buffer.Fetch(id);
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().IsIOError()) << fetched.status().ToString();
  EXPECT_EQ(buffer.PinnedFrames(), 0u);
  EXPECT_EQ(buffer.stats().pins, buffer.stats().unpins);
  EXPECT_FALSE(buffer.IsBuffered(id));
}

// Same for the eviction path: if making room fails because the dirty
// victim cannot be written back, the fetch fails, nothing stays pinned,
// and the victim's dirty contents are still buffered (not lost).
TEST(BufferPinTest, FailedEvictionWriteLeavesNoPinsAndKeepsVictim) {
  MemoryPageFile inner(4096);
  FaultInjectionPageFile::Options opt;
  opt.write_error_p = 1.0;
  FaultInjectionPageFile file(&inner, opt);
  BufferManager buffer(&file, 2);

  PageId a, b;
  buffer.NewPageOrDie(&a).mutable_page()->Write<uint32_t>(0, 1);
  buffer.NewPageOrDie(&b).mutable_page()->Write<uint32_t>(0, 2);
  PageId c = file.Allocate().value();

  auto fetched = buffer.Fetch(c);
  ASSERT_FALSE(fetched.ok());
  EXPECT_TRUE(fetched.status().IsIOError()) << fetched.status().ToString();
  EXPECT_EQ(buffer.PinnedFrames(), 0u);
  EXPECT_EQ(buffer.stats().pins, buffer.stats().unpins);
  EXPECT_TRUE(buffer.IsBuffered(a));
  EXPECT_TRUE(buffer.IsBuffered(b));

  // FlushDirty reports the failure, leaves the pages dirty, and counts
  // one flush error per failed page in telemetry.
  Status s = buffer.FlushDirty();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(buffer.stats().flush_errors, 2u);
  // Contents survive for a later, healthy flush.
  EXPECT_EQ(buffer.FetchOrDie(a)->Read<uint32_t>(0), 1u);
  EXPECT_EQ(buffer.FetchOrDie(b)->Read<uint32_t>(0), 2u);
}

// Concurrent read guards on the same and different pages: shared latches
// admit all readers at once, and the pin ledger drains to zero after.
TEST(BufferPinTest, ConcurrentReadGuardsBalancePins) {
  MemoryPageFile file(4096);
  BufferManager buffer(&file, 8);
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    PageId id;
    buffer.NewPageOrDie(&id).mutable_page()->Write<uint32_t>(
        0, static_cast<uint32_t>(i));
    ids.push_back(id);
  }
  ASSERT_TRUE(buffer.FlushDirty().ok());

  std::atomic<uint64_t> mismatches{0};
  {
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&buffer, &ids, &mismatches, t] {
        Rng rng(t + 1);
        for (int i = 0; i < 2000; ++i) {
          size_t k = rng.UniformInt(ids.size());
          PageGuard g = buffer.FetchOrDie(ids[k]);
          if (g->Read<uint32_t>(0) != static_cast<uint32_t>(k)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(buffer.PinnedFrames(), 0u);
  EXPECT_EQ(buffer.stats().pins, buffer.stats().unpins);
}

}  // namespace
}  // namespace rexp
