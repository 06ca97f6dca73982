// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Pre-generated operation streams for the end-to-end benchmark, with the
// oracle's answer to every query computed while the stream is generated.
// Everything here runs before the clock starts; the index under test only
// ever sees the finished stream.

#ifndef PERFBENCH_STREAM_H_
#define PERFBENCH_STREAM_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/query.h"
#include "common/random.h"
#include "common/types.h"
#include "tree/reference_index.h"
#include "tree/tree.h"
#include "workload/generator.h"
#include "workload/workload_spec.h"

namespace perfbench {

using rexp::ObjectId;
using rexp::Query;
using rexp::Time;
using rexp::Tpbr;
using rexp::Vec;

inline constexpr int kNnK = 10;

// Seed of the fixed scenario every workload's reports come from (see
// FleetStream).
inline constexpr uint64_t kScenarioSeed = 1;

// One position report: a first report (Insert) or a re-report replacing
// `old_record` (Update).
struct Report {
  ObjectId oid = 0;
  bool insert = false;
  Tpbr<2> old_record;
  Tpbr<2> record;
  Time now = 0;
};

// A range query; the paired NN query asks for the kNnK objects nearest
// to the centre of the query's start rectangle at its start time.
struct RangeQuery {
  Query<2> query;
  Time now = 0;
  Vec<2> NnPoint() const {
    Vec<2> c;
    for (int d = 0; d < 2; ++d) c[d] = 0.5 * (query.r1.lo[d] + query.r1.hi[d]);
    return c;
  }
};

struct Op {
  enum class Kind : uint8_t { kReport, kQuery, kNn, kTick };
  Kind kind;
  uint32_t idx;  // Into Stream::reports / Stream::queries.
};

struct Stream {
  std::vector<Report> setup;  // Loads the standing population.
  Time setup_end = 0;         // Time of the last set-up report.
  std::vector<Report> reports;
  std::vector<RangeQuery> queries;
  std::vector<Op> ops;  // The timed closed loop, in order.
  // Oracle answers: range answers sorted by oid, NN answers in rank
  // order; query i's answer is [off[i], off[i + 1]).
  std::vector<ObjectId> range_answers;
  std::vector<uint32_t> range_off{0};
  std::vector<ObjectId> nn_answers;
  std::vector<uint32_t> nn_off{0};
  // Whether each timed report's old record is live in the oracle (what
  // Update must return).
  std::vector<uint8_t> expect_found;
  Time end = 0;
};

// The current record of every object, mirrored from the reports in
// stream order. A re-report supersedes the old record (a stale copy the
// index could not delete had expired, so no query can see it), so the
// oracle for a query is a ReferenceIndex over the live current records.
class Oracle {
 public:
  // Returns whether an Update's old record is the object's live record.
  bool Apply(const Report& r) {
    if (r.oid >= current_.size()) {
      current_.resize(r.oid + 1);
      present_.resize(r.oid + 1, 0);
    }
    bool found = r.insert;  // Insert reports true.
    if (!r.insert && present_[r.oid]) {
      const Tpbr<2>& cur = current_[r.oid];
      found = cur.t_exp >= r.now && SameRecord(cur, r.old_record);
    }
    current_[r.oid] = r.record;
    present_[r.oid] = 1;
    return found;
  }

  void Answer(const RangeQuery& q, Stream* s) const {
    rexp::ReferenceIndex<2> ref;
    for (size_t oid = 0; oid < current_.size(); ++oid) {
      if (present_[oid] && current_[oid].t_exp >= q.now) {
        ref.Insert(static_cast<ObjectId>(oid), current_[oid]);
      }
    }
    std::vector<ObjectId> out;
    ref.Search(q.query, &out);
    std::sort(out.begin(), out.end());
    s->range_answers.insert(s->range_answers.end(), out.begin(), out.end());
    s->range_off.push_back(static_cast<uint32_t>(s->range_answers.size()));
    // Only records within the k-th smallest distance can rank, so the
    // oracle ranks just those (ties at that distance included), computing
    // the distance exactly as ReferenceIndex does.
    const Vec<2> p = q.NnPoint();
    const Time t = q.query.t_lo;
    auto dist_sq = [&](const Tpbr<2>& rec) {
      double d2 = 0;
      for (int d = 0; d < 2; ++d) {
        const double delta = rec.LoAt(d, t) - p[d];
        d2 += delta * delta;
      }
      return d2;
    };
    std::vector<double> dists;
    for (size_t oid = 0; oid < current_.size(); ++oid) {
      if (present_[oid] && current_[oid].t_exp >= t) {
        dists.push_back(dist_sq(current_[oid]));
      }
    }
    rexp::ReferenceIndex<2> near;
    if (!dists.empty()) {
      const size_t kth = std::min<size_t>(kNnK, dists.size()) - 1;
      std::nth_element(dists.begin(), dists.begin() + static_cast<long>(kth),
                       dists.end());
      const double bound = dists[kth];
      for (size_t oid = 0; oid < current_.size(); ++oid) {
        if (present_[oid] && current_[oid].t_exp >= t &&
            dist_sq(current_[oid]) <= bound) {
          near.Insert(static_cast<ObjectId>(oid), current_[oid]);
        }
      }
    }
    near.NearestNeighbors(p, t, kNnK, &out);
    s->nn_answers.insert(s->nn_answers.end(), out.begin(), out.end());
    s->nn_off.push_back(static_cast<uint32_t>(s->nn_answers.size()));
  }

  const Tpbr<2>& current(ObjectId oid) const { return current_[oid]; }

 private:
  static bool SameRecord(const Tpbr<2>& a, const Tpbr<2>& b) {
    if (a.t_exp != b.t_exp) return false;
    for (int d = 0; d < 2; ++d) {
      if (a.lo[d] != b.lo[d] || a.vlo[d] != b.vlo[d]) return false;
    }
    return true;
  }

  std::vector<Tpbr<2>> current_;
  std::vector<uint8_t> present_;
};

inline void AddReport(const Report& r, Oracle* oracle, Stream* s) {
  s->expect_found.push_back(oracle->Apply(r) ? 1 : 0);
  s->ops.push_back(
      {Op::Kind::kReport, static_cast<uint32_t>(s->reports.size())});
  s->reports.push_back(r);
  s->end = r.now;
}

inline void AddQuery(const RangeQuery& q, const Oracle& oracle, Stream* s) {
  oracle.Answer(q, s);
  const uint32_t idx = static_cast<uint32_t>(s->queries.size());
  s->queries.push_back(q);
  s->ops.push_back({Op::Kind::kQuery, idx});
  s->ops.push_back({Op::Kind::kNn, idx});
}

// The paper's query mix (Section 5.1): timeslice / window / moving with
// probabilities 0.6 / 0.2 / 0.2, temporal parts in [now, now + 30], and a
// square of 0.25% of the 1000 x 1000 space; a moving query follows
// `track`'s predicted trajectory.
inline Query<2> MakeQuery(rexp::Rng* rng, Time now, const Tpbr<2>& track) {
  constexpr double kSpace = 1000.0;
  constexpr double kSide = 50.0;
  constexpr double kWindow = 30.0;
  double ta = now + rng->Uniform(0, kWindow);
  double tb = now + rng->Uniform(0, kWindow);
  if (ta > tb) std::swap(ta, tb);
  const double roll = rng->NextDouble();
  const Vec<2> c{rng->Uniform(0, kSpace), rng->Uniform(0, kSpace)};
  const rexp::Rect<2> square = rexp::Rect<2>::Cube(c, kSide);
  if (roll < 0.6) return Query<2>::Timeslice(square, ta);
  if (roll < 0.8) return Query<2>::Window(square, ta, tb);
  return Query<2>::Moving(rexp::Rect<2>::Cube(track.PointAt(ta), kSide),
                          rexp::Rect<2>::Cube(track.PointAt(tb), kSide), ta,
                          tb);
}

// A fleet from the paper's workload generator. The road network and the
// fleet's trips are the scenario of generator seed kScenarioSeed; the
// run's seed draws the queries. (A different fleet gives a differently
// shaped tree, and query cost moves with the shape by about 10% from
// fleet to fleet — more than the changes the benchmark is meant to
// resolve.) Each object's first report (before spec.ui) loads the
// population; the next `timed_reports` reports are timed, with one range
// query (and its NN query) per `reports_per_query` of them.
struct FleetParams {
  rexp::WorkloadSpec spec;
  uint64_t reports_per_query = 100;
};

inline Stream FleetStream(const FleetParams& p, uint64_t seed,
                          uint64_t timed_reports) {
  rexp::WorkloadSpec spec = p.spec;
  spec.seed = kScenarioSeed;
  spec.total_insertions = UINT64_MAX;
  rexp::WorkloadGenerator gen(spec);
  rexp::Rng rng(seed);
  Stream s;
  Oracle oracle;
  std::vector<ObjectId> oids;
  rexp::Operation op;
  uint64_t since_query = 0;
  while (s.reports.size() < timed_reports && gen.Next(&op)) {
    if (op.kind == rexp::Operation::Kind::kQuery) continue;
    Report r{op.oid, op.kind == rexp::Operation::Kind::kInsert,
             op.old_record, op.record, op.time};
    if (r.insert) oids.push_back(r.oid);
    if (op.time < spec.ui) {
      (void)oracle.Apply(r);
      s.setup.push_back(r);
      s.setup_end = r.now;
      continue;
    }
    AddReport(r, &oracle, &s);
    if (++since_query < p.reports_per_query) continue;
    since_query = 0;
    // A moving query tracks a random object whose record is live.
    ObjectId track = oids[rng.UniformInt(oids.size())];
    while (oracle.current(track).t_exp < r.now) {
      track = oids[rng.UniformInt(oids.size())];
    }
    AddQuery({MakeQuery(&rng, r.now, oracle.current(track)), r.now}, oracle,
             &s);
  }
  return s;
}

// The live tier's design case (after bench_livetier): a long-lived fleet
// re-reports in bursts half a time unit apart, each object once per
// fleet/burst_fleet bursts (well inside its 120-unit expiry, so the fleet
// stays whole), and every burst also carries one-shot reports with short
// lifetimes in [0.5, 4). One synchronous migration tick runs between
// bursts; one range query and one NN query run per `reports_per_query`
// reports. As for FleetStream, the reports are the scenario of
// kScenarioSeed and the run's seed draws the queries.
struct BurstParams {
  uint64_t fleet = 0;
  uint64_t bursts = 0;
  uint64_t burst_fleet = 0;
  uint64_t burst_shorts = 0;
  uint64_t reports_per_query = 25;
};

inline Stream BurstStream(const BurstParams& p, uint64_t seed) {
  constexpr double kSpace = 1000.0;
  constexpr double kLife = 120.0;
  rexp::Rng rng(kScenarioSeed);
  rexp::Rng query_rng(seed);
  Stream s;
  Oracle oracle;
  auto drift = [&](const Tpbr<2>& last, Time now) {
    Vec<2> pos, vel;
    for (int d = 0; d < 2; ++d) {
      pos[d] = std::clamp(last.LoAt(d, now) + rng.Uniform(-0.5, 0.5), 0.0,
                          kSpace);
      vel[d] = std::clamp(last.vlo[d] + rng.Uniform(-0.2, 0.2), -1.0, 1.0);
      // Turn back at the border so the fleet stays inside the space.
      if ((pos[d] <= 0 && vel[d] < 0) || (pos[d] >= kSpace && vel[d] > 0)) {
        vel[d] = -vel[d];
      }
    }
    return rexp::MakeMovingPoint<2>(pos, vel, now, now + kLife);
  };
  auto random_point = [&](Time now, Time life) {
    Vec<2> pos{rng.Uniform(0, kSpace), rng.Uniform(0, kSpace)};
    Vec<2> vel{rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    return rexp::MakeMovingPoint<2>(pos, vel, now, now + life);
  };

  for (uint64_t i = 0; i < p.fleet; ++i) {
    Report r{static_cast<ObjectId>(i), true, {}, random_point(0.0, kLife), 0.0};
    (void)oracle.Apply(r);
    s.setup.push_back(r);
  }
  std::vector<ObjectId> order(p.fleet);
  std::iota(order.begin(), order.end(), ObjectId{0});
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }

  ObjectId next_short = static_cast<ObjectId>(p.fleet);
  uint64_t cursor = 0;
  uint64_t since_query = 0;
  for (uint64_t b = 0; b < p.bursts; ++b) {
    const Time now = 0.5 * static_cast<double>(b + 1);
    if (b > 0) s.ops.push_back({Op::Kind::kTick, 0});
    std::vector<Report> burst;
    for (uint64_t i = 0; i < p.burst_fleet; ++i) {
      const ObjectId oid = order[cursor++ % order.size()];
      const Tpbr<2>& last = oracle.current(oid);
      burst.push_back({oid, false, last, drift(last, now), now});
    }
    for (uint64_t i = 0; i < p.burst_shorts; ++i) {
      const Tpbr<2> record = random_point(now, rng.Uniform(0.5, 4.0));
      burst.push_back({next_short++, true, {}, record, now});
    }
    for (size_t i = burst.size(); i > 1; --i) {
      std::swap(burst[i - 1], burst[rng.UniformInt(i)]);
    }
    for (const Report& r : burst) {
      AddReport(r, &oracle, &s);
      if (++since_query < p.reports_per_query) continue;
      since_query = 0;
      const Tpbr<2>& track =
          oracle.current(order[query_rng.UniformInt(order.size())]);
      AddQuery({MakeQuery(&query_rng, now, track), now}, oracle, &s);
    }
  }
  return s;
}

}  // namespace perfbench

#endif  // PERFBENCH_STREAM_H_
