// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// End-to-end benchmark: one workload through one front-end per run, as a
// closed loop with one client thread (the index is an embedded library
// its host calls synchronously). See README.md for the workloads, the
// metrics and how to reproduce a run.
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--span-dir <dir>]
//
// The last line of output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics, measured
// with telemetry off; --trace 1 reports the per-layer metrics of a second,
// traced pass over the same stream. The line before it, "# record {...}",
// records the workload's properties and sample counts. A run whose
// properties or percentile sample counts fall outside their guards exits
// with code 2 and prints no result.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/parse.h"
#include "frontend.h"
#include "obs/metrics.h"
#include "stream.h"
#include "tpbr/tpbr_compute.h"

namespace perfbench {
namespace {

using rexp::Tree;

// ---------------------------------------------------------------------------
// Workloads (README.md says why each exists).

enum class FrontKind { kTree, kPartitioned, kTiered };

constexpr int kPartitions = 4;
constexpr int kSetupRuns = 3;  // setup_s is the median of these.

struct Workload {
  const char* name;
  FrontKind front;
  rexp::TreeConfig config;  // Per tree (per partition for kPartitioned).
  // Timed reports per second of --seconds: sized so a run's timed phase
  // lasts about --seconds on a 4-core x86 server.
  uint64_t reports_per_second;
  std::function<Stream(uint64_t seed, uint64_t timed_reports)> make;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> w;
  {
    // The paper's fig-13 network fleet (ExpD 180, three speed classes,
    // one query per 100 reports) on 4 KiB pages. 12 frames against the
    // ~68-page index keep the index/buffer ratio near 6 (the paper's 50
    // frames against its 100k-object index give about 18).
    rexp::TreeConfig config = rexp::TreeConfig::Rexp();
    config.buffer_frames = 12;
    w.push_back({"fleet_paged", FrontKind::kTree, config, 8000,
                 [](uint64_t seed, uint64_t timed) {
                   FleetParams p;
                   p.spec.target_objects = 8000;
                   p.spec.expiration =
                       rexp::WorkloadSpec::Expiration::kDistance;
                   p.spec.exp_d = 180.0;
                   return FleetStream(p, seed, timed);
                 }});
  }
  {
    // bench_partition's bimodal fleet (max speeds 0.1/0.1/6.0), one range
    // query and one NN query per 10 reports, and frames enough for every
    // class tree to stay resident.
    rexp::TreeConfig config = rexp::TreeConfig::Rexp();
    config.buffer_frames = 1024;
    w.push_back({"bimodal_fanout", FrontKind::kPartitioned, config, 6000,
                 [](uint64_t seed, uint64_t timed) {
                   FleetParams p;
                   p.spec.target_objects = 8000;
                   p.spec.max_speeds[0] = 0.1;
                   p.spec.max_speeds[1] = 0.1;
                   p.spec.max_speeds[2] = 6.0;
                   p.reports_per_query = 10;
                   return FleetStream(p, seed, timed);
                 }});
  }
  {
    rexp::TreeConfig config = rexp::TreeConfig::Rexp();
    w.push_back({"burst_tiered", FrontKind::kTiered, config, 11000,
                 [](uint64_t seed, uint64_t timed) {
                   BurstParams p;
                   p.fleet = 8000;
                   p.burst_fleet = 100;
                   p.burst_shorts = 100;
                   p.bursts = std::max<uint64_t>(
                       1, timed / (p.burst_fleet + p.burst_shorts));
                   return BurstStream(p, seed);
                 }});
  }
  return w;
}

rexp::LiveTierOptions TierOptions() {
  rexp::LiveTierOptions o;
  o.migrate_age = 2.0;  // As bench_livetier: quiet records migrate.
  return o;
}

// ---------------------------------------------------------------------------
// Process facts.

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

// A numeric field of /proc/self/status ("Threads", "VmRSS" in kB); 0
// when absent.
uint64_t ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) != 0) continue;
    const size_t first = line.find_first_of("0123456789");
    const size_t last = line.find_first_not_of("0123456789", first);
    uint64_t v = 0;
    if (first != std::string::npos &&
        rexp::ParseU64(line.substr(first, last - first).c_str(), &v)) {
      return v;
    }
  }
  return 0;
}

// Resident set after returning free heap memory to the system, so the
// figure follows live memory rather than where the allocator's free
// lists happen to end.
double RssMiB() {
  malloc_trim(0);
  return static_cast<double>(ProcStatus("VmRSS")) / 1024.0;
}

// ---------------------------------------------------------------------------
// Set-up.

std::unique_ptr<Frontend> MakeFrontend(const Workload& w, SpanLog* log) {
  switch (w.front) {
    case FrontKind::kTree:
      return std::make_unique<TreeFrontend>(w.config, log);
    case FrontKind::kPartitioned:
      return std::make_unique<PartitionedFrontend>(w.config, kPartitions,
                                                   log);
    case FrontKind::kTiered:
      return std::make_unique<TieredFrontend>(w.config, TierOptions(), log);
  }
  return nullptr;
}

// Builds the index to its standing population; returns the seconds taken.
double Setup(const Workload& w, const Stream& s, SpanLog* log,
             std::unique_ptr<Frontend>* out) {
  const uint64_t t0 = NowNs();
  std::unique_ptr<Frontend> f = MakeFrontend(w, log);
  for (const Report& r : s.setup) (void)f->Report(r);
  if (auto* tier = dynamic_cast<TieredFrontend*>(f.get())) {
    (void)tier->index().DrainLiveTier(s.setup_end);  // Tree-resident fleet.
  }
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  *out = std::move(f);
  return seconds;
}

// ---------------------------------------------------------------------------
// Counters summed over a front-end's trees.

struct Totals {
  enum {
    kReads,
    kWrites,
    kHits,
    kMisses,
    kDirtyEvictions,
    kUpdates,
    kUpdateFast,
    kChooseSubtree,
    kSplits,
    kForcedReinserts,
    kNodesVisited,
    kTpbrRecomputes,
    kLevelReads,  // One per node read and decoded.
    kWriteUs,     // Registry latency histograms (telemetry on only).
    kSearchUs,
    kCount
  };
  double c[kCount] = {};

  double operator[](int i) const { return c[i]; }
  Totals& operator+=(const Totals& o) {
    for (int i = 0; i < kCount; ++i) c[i] += o.c[i];
    return *this;
  }
  Totals operator-(const Totals& o) const {
    Totals d = *this;
    for (int i = 0; i < kCount; ++i) d.c[i] -= o.c[i];
    return d;
  }
};

Totals Snapshot(const std::vector<Tree<2>*>& trees) {
  Totals t;
  auto add = [&t](int i, const std::atomic<uint64_t>& v) {
    t.c[i] += static_cast<double>(v.load(std::memory_order_relaxed));
  };
  for (const Tree<2>* tree : trees) {
    const rexp::IoStats& io = tree->io_stats();
    add(Totals::kReads, io.reads);
    add(Totals::kWrites, io.writes);
    add(Totals::kHits, io.hits);
    add(Totals::kMisses, io.misses);
    add(Totals::kDirtyEvictions, io.evictions_dirty);
    const rexp::TreeOpStats& ops = tree->op_stats();
    add(Totals::kUpdates, ops.updates);
    add(Totals::kUpdateFast, ops.update_fast);
    add(Totals::kChooseSubtree, ops.choose_subtree_calls);
    add(Totals::kSplits, ops.splits);
    add(Totals::kForcedReinserts, ops.forced_reinserts);
    add(Totals::kNodesVisited, ops.nodes_visited_search);
    add(Totals::kTpbrRecomputes, ops.tpbr_recomputes);
    for (const auto& reads : ops.level_reads) add(Totals::kLevelReads, reads);
    t.c[Totals::kWriteUs] += ops.insert_latency_us.sum() +
                             ops.delete_latency_us.sum() +
                             ops.update_latency_us.sum();
    t.c[Totals::kSearchUs] += ops.search_latency_us.sum();
  }
  return t;
}

// Page I/O (device reads + writes) and buffer fetches (hits + misses):
// the two counters the untraced loop reads around every operation.
struct Io {
  uint64_t io = 0;
  uint64_t fetches = 0;
};

Io ReadIo(const std::vector<Tree<2>*>& trees) {
  Io r;
  for (const Tree<2>* tree : trees) {
    const rexp::IoStats& s = tree->io_stats();
    r.io += s.reads.load(std::memory_order_relaxed) +
            s.writes.load(std::memory_order_relaxed);
    r.fetches += s.hits.load(std::memory_order_relaxed) +
                 s.misses.load(std::memory_order_relaxed);
  }
  return r;
}

// ---------------------------------------------------------------------------
// The timed closed loop.

constexpr int kSlices = 10;  // ops_per_s is the median over these.

// What the traced pass attributes to layers.
struct Layered {
  Totals by_kind[4];  // Counter deltas, indexed by Op::Kind.
  Totals replayed;    // Counter work of the benchmark's own replays.
  double replay_ns = 0;
  std::vector<double> absorb_us;  // Reports that touched no page.
  std::vector<double> tick_ms;
  double query_seq_us = 0;  // The same queries, one tree after another.
  double nn_seq_us = 0;
};

struct Timed {
  double wall_s = 0;
  // Throughput of each tenth of the stream: their median resists a burst
  // of interference from other work on the machine.
  std::vector<double> slice_ops_per_s;
  std::vector<double> report_us, query_us, nn_us;
  uint64_t report_io = 0;  // Includes the migration ticks' I/O.
  uint64_t query_fetches = 0;
  std::vector<ObjectId> range, nn;  // Answers, flattened in stream order.
  std::vector<uint32_t> range_off, nn_off;
  std::vector<uint8_t> found;
  Layered layers;

  // Reserves and touches every buffer the loop writes, so the loop does
  // not allocate and an RSS baseline taken afterwards excludes them.
  explicit Timed(const Stream& s) {
    auto touch = [](auto* v, size_t n) {
      v->resize(n);
      v->clear();
    };
    touch(&report_us, s.reports.size());
    touch(&query_us, s.queries.size());
    touch(&nn_us, s.queries.size());
    touch(&range, 2 * s.range_answers.size() + 1024);
    touch(&nn, 2 * s.nn_answers.size() + 1024);
    touch(&range_off, s.queries.size() + 1);
    touch(&nn_off, s.queries.size() + 1);
    touch(&found, s.reports.size());
    range_off.push_back(0);
    nn_off.push_back(0);
    slice_ops_per_s.reserve(kSlices + 1);
  }
};

// Runs the timed stream. With a span log (the traced pass) it also
// attributes every operation to layers and replays each query on the
// trees behind a partitioned or tiered index, one tree after another;
// the replays are left out of the wall time and of every counter.
void RunTimed(const Stream& s, Frontend* f, SpanLog* log, Timed* t) {
  const std::vector<Tree<2>*>& trees = f->trees();
  const bool traced = log != nullptr;
  auto* part = dynamic_cast<PartitionedFrontend*>(f);
  auto* tier = dynamic_cast<TieredFrontend*>(f);
  std::vector<ObjectId> scratch, replay;
  scratch.reserve(4096);
  replay.reserve(4096);
  Layered& L = t->layers;
  if (traced) log->enabled = true;

  const size_t slice_len = (s.ops.size() + kSlices - 1) / kSlices;
  uint64_t slice_ops = 0;
  double slice_replay_ns = 0;
  auto close_slice = [&](uint64_t slice_start, uint64_t now) {
    const double ns = static_cast<double>(now - slice_start) -
                      (L.replay_ns - slice_replay_ns);
    t->slice_ops_per_s.push_back(static_cast<double>(slice_ops) / ns * 1e9);
    slice_ops = 0;
    slice_replay_ns = L.replay_ns;
  };
  const uint64_t start = NowNs();
  uint64_t slice_start = start;
  for (size_t i = 0; i < s.ops.size(); ++i) {
    if (i > 0 && i % slice_len == 0) {
      const uint64_t now = NowNs();
      close_slice(slice_start, now);
      slice_start = now;
    }
    const Op& op = s.ops[i];
    if (op.kind != Op::Kind::kTick) ++slice_ops;
    const bool query = op.kind == Op::Kind::kQuery || op.kind == Op::Kind::kNn;
    const RangeQuery* q = query ? &s.queries[op.idx] : nullptr;
    const Io io0 = ReadIo(trees);
    const Totals tot0 = traced ? Snapshot(trees) : Totals{};
    uint32_t span = kNoSpan;
    if (traced) {
      span = log->Add(static_cast<SpanName>(op.kind), 0, 0, kNoSpan);
      log->parent = span;
    }
    scratch.clear();
    uint64_t t0 = 0, t1 = 0;
    switch (op.kind) {
      case Op::Kind::kReport: {
        const Report& r = s.reports[op.idx];
        t0 = NowNs();
        const bool found = f->Report(r);
        t1 = NowNs();
        t->found.push_back(found ? 1 : 0);
        t->report_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        break;
      }
      case Op::Kind::kQuery:
        t0 = NowNs();
        f->Search(q->query, &scratch);
        t1 = NowNs();
        t->query_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        t->range.insert(t->range.end(), scratch.begin(), scratch.end());
        t->range_off.push_back(static_cast<uint32_t>(t->range.size()));
        break;
      case Op::Kind::kNn:
        t0 = NowNs();
        f->Nn(q->NnPoint(), q->query.t_lo, &scratch);
        t1 = NowNs();
        t->nn_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        t->nn.insert(t->nn.end(), scratch.begin(), scratch.end());
        t->nn_off.push_back(static_cast<uint32_t>(t->nn.size()));
        break;
      case Op::Kind::kTick:
        t0 = NowNs();
        f->Tick();
        t1 = NowNs();
        break;
    }
    const Io io1 = ReadIo(trees);
    if (op.kind == Op::Kind::kReport || op.kind == Op::Kind::kTick) {
      t->report_io += io1.io - io0.io;
    } else if (op.kind == Op::Kind::kQuery) {
      t->query_fetches += io1.fetches - io0.fetches;
    }
    if (!traced) continue;

    log->spans[span].start_ns = t0;
    log->spans[span].dur_ns = t1 - t0;
    const Totals tot1 = Snapshot(trees);
    L.by_kind[static_cast<int>(op.kind)] += tot1 - tot0;
    if (op.kind == Op::Kind::kReport && io1.io == io0.io &&
        io1.fetches == io0.fetches) {
      L.absorb_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }
    if (op.kind == Op::Kind::kTick) {
      L.tick_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
    if (q == nullptr || (part == nullptr && tier == nullptr)) continue;
    const uint64_t r0 = NowNs();
    log->counting = false;
    const std::vector<Tree<2>*> targets =
        part != nullptr ? part->Candidates()
                        : std::vector<Tree<2>*>{&tier->index().tree()};
    for (Tree<2>* tree : targets) {
      replay.clear();
      const uint64_t a = NowNs();
      if (op.kind == Op::Kind::kQuery) {
        tree->Search(q->query, &replay);
      } else {
        tree->NearestNeighbors(q->NnPoint(), q->query.t_lo, kNnK, &replay);
      }
      const uint64_t b = NowNs();
      const bool range = op.kind == Op::Kind::kQuery;
      log->Add(range ? kSpanReplayQuery : kSpanReplayNn, a, b, span);
      (range ? L.query_seq_us : L.nn_seq_us) +=
          static_cast<double>(b - a) * 1e-3;
    }
    log->counting = true;
    L.replayed += Snapshot(trees) - tot1;
    L.replay_ns += static_cast<double>(NowNs() - r0);
  }
  const uint64_t end = NowNs();
  close_slice(slice_start, end);
  t->wall_s = (static_cast<double>(end - start) - L.replay_ns) * 1e-9;
  if (traced) {
    log->enabled = false;
    log->parent = kNoSpan;
  }
}

// ---------------------------------------------------------------------------
// Answer check (after the clock stops).

struct Wrong {
  uint64_t range = 0, nn = 0, found = 0;
  uint64_t total() const { return range + nn + found; }
};

Wrong WrongAnswers(const Stream& s, Timed* t) {
  Wrong wrong;
  for (size_t i = 0; i < s.queries.size(); ++i) {
    auto first = t->range.begin() + t->range_off[i];
    auto last = t->range.begin() + t->range_off[i + 1];
    std::sort(first, last);
    if (!std::equal(first, last, s.range_answers.begin() + s.range_off[i],
                    s.range_answers.begin() + s.range_off[i + 1])) {
      ++wrong.range;
    }
    if (!std::equal(t->nn.begin() + t->nn_off[i],
                    t->nn.begin() + t->nn_off[i + 1],
                    s.nn_answers.begin() + s.nn_off[i],
                    s.nn_answers.begin() + s.nn_off[i + 1])) {
      ++wrong.nn;
    }
  }
  for (size_t i = 0; i < s.reports.size(); ++i) {
    if (t->found[i] != s.expect_found[i]) ++wrong.found;
  }
  return wrong;
}

// ---------------------------------------------------------------------------
// Statistics and output.

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: refusing to publish: %s\n", why.c_str());
  std::exit(2);
}

// Nearest-rank percentile. Refuses to publish one with fewer than 10
// samples beyond it.
double Percentile(std::vector<double> v, double q, const char* what) {
  const size_t n = v.size();
  const auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || rank < 1 || n - rank < 10) {
    Refuse(std::string(what) + ": " + std::to_string(n) +
           " samples leave fewer than 10 beyond p" +
           std::to_string(std::lround(q * 100)));
  }
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

double Sum(const std::vector<double>& v) {
  double t = 0;
  for (double x : v) t += x;
  return t;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Layer replays over the final index's pages: inner CPU layers the index
// calls internally, timed through their public functions.

// Median per-call microseconds of `fn`, which makes `calls` calls, over
// 5 rounds of at least 20 ms each.
double PerCallUs(uint64_t calls, const std::function<void()>& fn) {
  if (calls == 0) return 0;
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    uint64_t reps = 0;
    const uint64_t t0 = NowNs();
    uint64_t t1 = t0;
    do {
      fn();
      ++reps;
      t1 = NowNs();
    } while (t1 - t0 < 20'000'000);
    rounds.push_back(static_cast<double>(t1 - t0) * 1e-3 /
                     static_cast<double>(reps * calls));
  }
  return Median(rounds);
}

struct Replays {
  uint64_t pages = 0;
  double crc_us_per_frame = 0;
  double decode_us_per_page = 0;
  double encode_us_per_page = 0;
  double node_bound_us = 0;
  double pair_bound_us = 0;
};

Replays ReplayLayers(Frontend* f, Time now) {
  struct Stored {
    const Tree<2>* tree;
    rexp::Page page;
    rexp::Node<2> node;
  };
  // Every reachable page, read from the device (not through the buffer).
  std::vector<Stored> stored;
  for (size_t i = 0; i < f->trees().size(); ++i) {
    const Tree<2>* tree = f->trees()[i];
    rexp::PageFile* file = f->files()[i];
    if (tree->root() == rexp::kInvalidPageId) continue;
    std::vector<rexp::PageId> stack{tree->root()};
    while (!stack.empty()) {
      const rexp::PageId id = stack.back();
      stack.pop_back();
      Stored st{tree, rexp::Page(file->page_size()), {}};
      if (!file->ReadPage(id, &st.page).ok()) Refuse("replay: unreadable page");
      tree->codec().Decode(st.page, &st.node);
      if (!st.node.IsLeaf()) {
        for (const auto& e : st.node.entries) stack.push_back(e.id);
      }
      stored.push_back(std::move(st));
    }
  }
  Replays r;
  r.pages = stored.size();
  if (stored.empty()) return r;
  volatile uint32_t sink = 0;  // Keeps the replayed results alive.

  // Crc32c over a frame-sized buffer holding a real page.
  std::vector<uint8_t> frame(f->files()[0]->frame_size());
  std::memcpy(frame.data(), stored[0].page.data(),
              std::min<size_t>(frame.size(), stored[0].page.size()));
  r.crc_us_per_frame = PerCallUs(64, [&] {
    uint32_t c = 0;
    for (int i = 0; i < 64; ++i) {
      frame[0] = static_cast<uint8_t>(i);
      c ^= rexp::Crc32c(frame.data(), frame.size());
    }
    sink = sink ^ c;
  });

  rexp::Node<2> node;
  r.decode_us_per_page = PerCallUs(stored.size(), [&] {
    for (const Stored& st : stored) st.tree->codec().Decode(st.page, &node);
  });
  rexp::Page page(stored[0].page.size());
  r.encode_us_per_page = PerCallUs(stored.size(), [&] {
    for (const Stored& st : stored) st.tree->codec().Encode(st.node, &page);
  });

  // ComputeTpbr(kNearOptimal) as ComputeBound calls it on each stored
  // node's live entries, and on two-entry spans as DecisionBound calls
  // it, with the tree's horizon for the node's parent level.
  struct Bounded {
    std::vector<Tpbr<2>> regions;
    double horizon;
  };
  std::vector<Bounded> nodes;
  for (const Stored& st : stored) {
    Bounded b{{}, 0};
    for (const auto& e : st.node.entries) {
      const Time exp =
          st.node.IsLeaf() ? e.region.t_exp : e.region.EffectiveExpiry(0);
      if (exp >= now) b.regions.push_back(e.region);
    }
    if (b.regions.empty()) continue;
    const auto& counts = st.tree->level_counts();
    const size_t parent = static_cast<size_t>(st.node.level) + 1;
    b.horizon = st.tree->horizon().TpbrHorizon(
        parent < counts.size() ? counts[parent] : 1, st.tree->leaf_entries());
    nodes.push_back(std::move(b));
  }
  uint64_t pairs = 0;
  for (const Bounded& b : nodes) pairs += b.regions.size() / 2;
  rexp::Rng rng(7);
  auto bound = [&](std::span<const Tpbr<2>> regions, double horizon) {
    const Tpbr<2> t = rexp::ComputeTpbr<2>(rexp::TpbrKind::kNearOptimal,
                                           regions, now, horizon, &rng);
    sink = sink ^ static_cast<uint32_t>(t.t_exp);
  };
  r.node_bound_us = PerCallUs(nodes.size(), [&] {
    for (const Bounded& b : nodes) bound(b.regions, b.horizon);
  });
  r.pair_bound_us = PerCallUs(pairs, [&] {
    for (const Bounded& b : nodes) {
      for (size_t i = 0; i + 1 < b.regions.size(); i += 2) {
        bound(std::span<const Tpbr<2>>(b.regions.data() + i, 2), b.horizon);
      }
    }
  });
  return r;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  std::string span_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    uint64_t n = 0;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed" && rexp::ParseU64(v, &n)) {
      a->seed = n;
    } else if (k == "--seconds" && rexp::ParseU64(v, &n) && n >= 1 &&
               n <= 600) {
      a->seconds = n;
    } else if (k == "--trace" && rexp::ParseU64(v, &n) && n <= 1) {
      a->trace = static_cast<int>(n);
    } else if (k == "--span-dir") {
      a->span_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->trace >= 0;
}

// Writes the traced pass's spans as JSON lines (times relative to the
// first span), one file per workload, replaced by each traced run.
void WriteSpans(const Args& a, const SpanLog& log) {
  if (a.span_dir.empty()) return;
  const std::string path = a.span_dir + "/" + a.workload + ".jsonl";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  const uint64_t base = log.spans.empty() ? 0 : log.spans[0].start_ns;
  for (size_t i = 0; i < log.spans.size(); ++i) {
    const Span& s = log.spans[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_ns\":%" PRIu64 ",\"dur_ns\":%" PRIu64 "}\n",
                 i,
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 kSpanNames[s.name], s.start_ns - base, s.dur_ns);
  }
  std::fclose(out);
}

// The per-layer metrics of the traced pass. README.md defines each.
std::vector<Metric> LayerMetrics(const Stream& s, const Timed& untraced,
                                 const Timed& traced, const SpanLog& log,
                                 Frontend* f, const Totals& d,
                                 const rexp::PartitionedIndex<2>::Stats& p0,
                                 const rexp::LiveTier<2>::Stats& l0) {
  const Layered& L = traced.layers;
  const Totals& rep = L.by_kind[static_cast<int>(Op::Kind::kReport)];
  const Totals& tick = L.by_kind[static_cast<int>(Op::Kind::kTick)];
  const Totals& qry = L.by_kind[static_cast<int>(Op::Kind::kQuery)];
  const Totals& nnq = L.by_kind[static_cast<int>(Op::Kind::kNn)];
  const double reports = static_cast<double>(s.reports.size());
  const double queries = static_cast<double>(s.queries.size());
  const double ops = reports + 2 * queries;
  const double report_us = Sum(traced.report_us);
  const double query_us = Sum(traced.query_us);
  const double nn_us = Sum(traced.nn_us);

  double route_us = 0, fanout_us = 0, pruned = 0, migrations = 0;
  if (auto* part = dynamic_cast<PartitionedFrontend*>(f)) {
    const auto p1 = part->index().stats();
    route_us = (report_us - rep[Totals::kWriteUs]) / reports;
    fanout_us = (query_us + nn_us - L.query_seq_us - L.nn_seq_us) /
                (2 * queries);
    const auto pr =
        static_cast<double>(p1.partitions_pruned - p0.partitions_pruned);
    const auto se =
        static_cast<double>(p1.partitions_searched - p0.partitions_searched);
    pruned = Ratio(pr, pr + se);
    migrations = static_cast<double>(p1.migrations - p0.migrations) / reports;
  }
  double absorb_us = 0, migrate_ms = 0, per_tick = 0, query_merge_us = 0,
         nn_merge_us = 0, died = 0, resident = 0;
  if (auto* tier = dynamic_cast<TieredFrontend*>(f)) {
    const auto& l1 = tier->index().live_tier().stats();
    const auto migrated = static_cast<double>(l1.migrated - l0.migrated);
    const auto in_place =
        static_cast<double>(l1.died_in_place - l0.died_in_place);
    const auto with_copy =
        static_cast<double>(l1.died_with_tree_copy - l0.died_with_tree_copy);
    absorb_us = Median(L.absorb_us);
    migrate_ms = Median(L.tick_ms);
    per_tick = Ratio(migrated, static_cast<double>(L.tick_ms.size()));
    query_merge_us = (query_us - L.query_seq_us) / queries;
    nn_merge_us = (nn_us - L.nn_seq_us) / queries;
    died = Ratio(in_place, in_place + with_copy + migrated);
    resident = static_cast<double>(tier->index().live_tier().resident());
  }

  const Replays rp = ReplayLayers(f, s.end);
  const double frames_per_op =
      static_cast<double>(log.device_reads + log.device_writes) / ops;
  const double recomputes = d[Totals::kTpbrRecomputes] / reports;
  const double decodes =
      (qry[Totals::kLevelReads] + nnq[Totals::kLevelReads]) / (2 * queries);
  return {
      {"trace.overhead",
       Median(untraced.slice_ops_per_s) / Median(traced.slice_ops_per_s),
       "x"},
      {"partition.route_us", route_us, "us"},
      {"partition.fanout_us", fanout_us, "us"},
      {"partition.pruned_fraction", pruned, "1"},
      {"partition.migrations_per_report", migrations, "1/op"},
      {"livetier.absorb_us", absorb_us, "us"},
      {"livetier.migrate_ms", migrate_ms, "ms"},
      {"livetier.migrated_per_tick", per_tick, "count"},
      {"livetier.query_merge_us", query_merge_us, "us"},
      {"livetier.nn_merge_us", nn_merge_us, "us"},
      {"livetier.died_in_place_fraction", died, "1"},
      {"livetier.resident", resident, "count"},
      {"tree.report_us", rep[Totals::kWriteUs] / reports, "us"},
      {"tree.search_us", qry[Totals::kSearchUs] / queries, "us"},
      {"tree.update_fast_fraction",
       Ratio(d[Totals::kUpdateFast], d[Totals::kUpdates]), "1"},
      {"tree.choose_subtree_per_report", d[Totals::kChooseSubtree] / reports,
       "1/op"},
      {"tree.splits_per_report", d[Totals::kSplits] / reports, "1/op"},
      {"tree.reinserts_per_report", d[Totals::kForcedReinserts] / reports,
       "1/op"},
      {"tree.nodes_per_query",
       (qry[Totals::kNodesVisited] + nnq[Totals::kNodesVisited]) /
           (2 * queries),
       "1/op"},
      {"tpbr.node_bound_us", rp.node_bound_us, "us"},
      {"tpbr.pair_bound_us", rp.pair_bound_us, "us"},
      {"tpbr.recomputes_per_report", recomputes, "1/op"},
      {"tpbr.us_per_report", rp.node_bound_us * recomputes, "us"},
      {"codec.decode_us_per_page", rp.decode_us_per_page, "us"},
      {"codec.encode_us_per_page", rp.encode_us_per_page, "us"},
      {"codec.decodes_per_query", decodes, "1/op"},
      {"codec.decode_us_per_query", rp.decode_us_per_page * decodes, "us"},
      {"codec.replayed_pages", static_cast<double>(rp.pages), "pages"},
      {"buffer.hit_rate",
       Ratio(d[Totals::kHits], d[Totals::kHits] + d[Totals::kMisses]), "1"},
      {"buffer.misses_per_op", d[Totals::kMisses] / ops, "1/op"},
      {"buffer.dirty_evictions_per_op", d[Totals::kDirtyEvictions] / ops,
       "1/op"},
      {"buffer.writes_per_report",
       (rep[Totals::kWrites] + tick[Totals::kWrites]) / reports, "1/op"},
      {"buffer.query_io",
       (qry[Totals::kReads] + qry[Totals::kWrites]) / queries, "io/op"},
      {"device.read_us_per_op",
       static_cast<double>(log.device_read_ns) * 1e-3 / ops, "us"},
      {"device.write_us_per_op",
       static_cast<double>(log.device_write_ns) * 1e-3 / ops, "us"},
      {"device.frames_per_op", frames_per_op, "1/op"},
      {"crc.us_per_frame", rp.crc_us_per_frame, "us"},
      {"crc.us_per_op", rp.crc_us_per_frame * frames_per_op, "us"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--span-dir <dir>]\n");
    return 1;
  }
  const std::vector<Workload> all = Workloads();
  const Workload* w = nullptr;
  for (const Workload& c : all) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 1;
  }
  rexp::obs::telemetry::SetEnabled(false);

  const uint64_t gen0 = NowNs();
  const Stream s = w->make(args.seed, w->reports_per_second * args.seconds);
  const double generate_s = static_cast<double>(NowNs() - gen0) * 1e-9;

  // No query pool: PartitionedIndex fans out on the client thread. A
  // pool of 2 threads (client + pool within nproc, one core free) was
  // 1.9x slower per query (p50 87 vs 47 us) and, on a shared 4-core
  // machine under load from other work, moved query p90 from 137 us to
  // 180-2560 us between two sets of ten runs.
  const int nproc = Nproc();

  // --- the end-to-end pass: telemetry off ---
  Timed timed(s);
  const double rss0 = RssMiB();
  std::unique_ptr<Frontend> f;
  std::vector<double> setups{Setup(*w, s, nullptr, &f)};
  const uint64_t threads = ProcStatus("Threads");
  RunTimed(s, f.get(), nullptr, &timed);
  const double rss_mb = RssMiB() - rss0;

  // Checks and workload properties, after the clock stops.
  const Wrong wrong = WrongAnswers(s, &timed);
  const size_t findings = f->VerifyFindings(s.end);
  uint64_t failed = wrong.total() + findings;
  const uint64_t ops = s.reports.size() + 2 * s.queries.size();
  const Totals fin = Snapshot(f->trees());
  const auto pages = static_cast<double>(f->Pages());
  const double frames = static_cast<double>(w->config.buffer_frames) *
                        static_cast<double>(f->trees().size());
  const double hit_rate =
      Ratio(fin[Totals::kHits], fin[Totals::kHits] + fin[Totals::kMisses]);
  double died_in_place = 0;
  if (auto* tier = dynamic_cast<TieredFrontend*>(f.get())) {
    const auto& st = tier->index().live_tier().stats();
    died_in_place = Ratio(static_cast<double>(st.died_in_place),
                          static_cast<double>(st.died_in_place +
                                              st.died_with_tree_copy +
                                              st.migrated));
  }
  std::printf(
      "# record {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"nproc\": %d, \"threads\": %" PRIu64
      ", \"samples\": {\"report\": %zu, \"query\": %zu, \"nn\": %zu}, "
      "\"index_pages\": %.0f, \"buffer_frames\": %.0f, "
      "\"pages_per_frame\": %.3f, \"buffer_hit_rate\": %.6f, "
      "\"died_in_place_fraction\": %.4f, \"failed_fraction\": %.6g, "
      "\"wrong\": {\"range\": %" PRIu64 ", \"nn\": %" PRIu64
      ", \"update_found\": %" PRIu64
      "}, \"verify_findings\": %zu, \"timed_s\": %.3f, "
      "\"generate_s\": %.3f, \"first_setup_s\": %.3f}\n",
      w->name, args.seed, nproc, threads, timed.report_us.size(),
      timed.query_us.size(), timed.nn_us.size(), pages, frames,
      Ratio(pages, frames), hit_rate, died_in_place,
      Ratio(static_cast<double>(failed), static_cast<double>(ops)),
      wrong.range, wrong.nn, wrong.found, findings, timed.wall_s, generate_s,
      setups[0]);

  // Workload-property guards.
  if (threads > static_cast<uint64_t>(nproc)) {
    Refuse("thread count " + std::to_string(threads) + " exceeds nproc " +
           std::to_string(nproc));
  }
  if (w->front == FrontKind::kTree && pages < 4 * frames) {
    Refuse("index_pages / buffer_frames below 4: the workload does not page");
  }
  if (w->front == FrontKind::kPartitioned && hit_rate < 0.99) {
    Refuse("buffer hit rate below 0.99: the class trees outgrow their buffers");
  }

  if (args.trace == 0) {
    f.reset();
    for (int i = 1; i < kSetupRuns; ++i) {
      setups.push_back(Setup(*w, s, nullptr, &f));
      f.reset();
    }
    const double reports = static_cast<double>(timed.report_us.size());
    const double queries = static_cast<double>(timed.query_us.size());
    const std::vector<Metric> m = {
        {"ops_per_s", Median(timed.slice_ops_per_s), "1/s"},
        {"report_p50_us", Percentile(timed.report_us, 0.50, "report"), "us"},
        {"report_p99_us", Percentile(timed.report_us, 0.99, "report"), "us"},
        {"query_p50_us", Percentile(timed.query_us, 0.50, "query"), "us"},
        {"query_p90_us", Percentile(timed.query_us, 0.90, "query"), "us"},
        {"nn_p50_us", Percentile(timed.nn_us, 0.50, "nn"), "us"},
        {"nn_p90_us", Percentile(timed.nn_us, 0.90, "nn"), "us"},
        {"report_io", static_cast<double>(timed.report_io) / reports, "io/op"},
        {"query_pages", static_cast<double>(timed.query_fetches) / queries,
         "pages/op"},
        {"index_pages", pages, "pages"},
        {"rss_mb", rss_mb, "MiB"},
        {"setup_s", Median(setups), "s"},
    };
    PrintResult(failed == 0, ops, failed, m);
    return 0;
  }

  // --- the traced pass: the same stream again, telemetry on, spans kept
  // in memory ---
  f.reset();
  rexp::obs::telemetry::SetEnabled(true);
  SpanLog log;
  log.spans.reserve(8 * s.ops.size());
  Timed traced(s);
  (void)Setup(*w, s, &log, &f);
  const Totals before = Snapshot(f->trees());
  rexp::PartitionedIndex<2>::Stats p0{};
  if (auto* part = dynamic_cast<PartitionedFrontend*>(f.get())) {
    p0 = part->index().stats();
  }
  rexp::LiveTier<2>::Stats l0{};
  if (auto* tier = dynamic_cast<TieredFrontend*>(f.get())) {
    l0 = tier->index().live_tier().stats();
  }
  RunTimed(s, f.get(), &log, &traced);
  rexp::obs::telemetry::SetEnabled(false);
  const Totals d = Snapshot(f->trees()) - before - traced.layers.replayed;
  failed += WrongAnswers(s, &traced).total() + f->VerifyFindings(s.end);
  const std::vector<Metric> m =
      LayerMetrics(s, timed, traced, log, f.get(), d, p0, l0);
  std::printf("# trace {\"spans\": %zu, \"untraced_timed_s\": %.3f, "
              "\"traced_timed_s\": %.3f}\n",
              log.spans.size(), timed.wall_s, traced.wall_s);
  WriteSpans(args, log);
  PrintResult(failed == 0, 2 * ops, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
