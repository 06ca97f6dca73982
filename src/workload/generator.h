// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Workload generation (paper Section 5.1). A pull-based, event-driven
// simulator produces a time-ordered stream of index operations:
//
//  * kInsert — an object reports its position for the first time (or a
//    replacement object appears after another was "turned off").
//  * kUpdate — an object reports fresh parameters: the harness deletes the
//    old record (which may legitimately fail if it expired) and inserts
//    the new one.
//  * kQuery  — one query per `insertions_per_query` insertions; timeslice /
//    window / moving with probabilities 0.6 / 0.2 / 0.2; temporal parts in
//    [now, now + W]; spatial part a square of 0.25 % of the space; moving
//    queries track a random live object's predicted trajectory.
//
// Two data modes: the network scenario (destinations + routes with
// accelerate–cruise–decelerate speed profiles; updates placed in the
// acceleration/deceleration stretches so the mean interval is ~UI) and the
// uniform scenario. Expiration follows ExpT (duration) or ExpD
// (speed-dependent distance). The generator keeps the number of live
// records near `target_objects` by spawning replacements, as the paper's
// generator does.

#ifndef REXP_WORKLOAD_GENERATOR_H_
#define REXP_WORKLOAD_GENERATOR_H_

#include <deque>
#include <queue>
#include <vector>

#include "common/query.h"
#include "common/random.h"
#include "common/types.h"
#include "tpbr/tpbr.h"
#include "workload/workload_spec.h"

namespace rexp {

struct Operation {
  enum class Kind { kInsert, kUpdate, kQuery };
  Kind kind = Kind::kInsert;
  Time time = 0;
  ObjectId oid = 0;
  Tpbr<2> record;      // kInsert / kUpdate: the new canonical record.
  Tpbr<2> old_record;  // kUpdate: the record being replaced.
  Query<2> query;      // kQuery.
};

class WorkloadGenerator {
 public:
  explicit WorkloadGenerator(const WorkloadSpec& spec);

  // Produces the next operation; returns false when `total_insertions`
  // insert/update operations have been emitted.
  bool Next(Operation* op);

  // Number of records currently live (unexpired, not superseded) in the
  // simulated scenario — tracked so the population can be kept near
  // target_objects, and handy for test assertions.
  uint64_t live_records() const { return live_records_; }

 private:
  struct ObjectState {
    bool active = false;       // False once turned off.
    Tpbr<2> record;            // Last reported canonical record.
    uint64_t version = 0;      // Bumped on every report (expiry tracking).
    // Network mode: current route and the time the route was entered.
    int route_from = 0;
    int route_to = 0;
    double route_start_time = 0;
    double max_speed = 1.0;
    int next_report = 0;       // Index into the route's report schedule.
    std::vector<double> report_times;  // Offsets from route_start_time.
  };

  // Simulation events: the next report of an object.
  struct Event {
    Time time;
    ObjectId oid;
    bool operator>(const Event& other) const { return time > other.time; }
  };

  void SpawnObject(Time now);
  void ScheduleRoute(ObjectState* state, Time now, bool random_phase);
  double RouteDuration(const ObjectState& state) const;
  Time NextEventTime(const ObjectState& state, Time now);
  // Position/velocity on the current route at absolute time t.
  void RouteKinematics(const ObjectState& state, Time t, Vec<2>* pos,
                       Vec<2>* vel) const;
  Time ExpirationFor(Time now, double speed) const;
  void EmitReport(ObjectId oid, Time now);
  void MaybeEmitQuery(Time now);
  void AdvanceLiveCount(Time now);
  void TrackRecord(ObjectId oid, const ObjectState& state);

  WorkloadSpec spec_;
  Rng rng_;
  std::vector<Vec<2>> destinations_;
  std::vector<ObjectState> objects_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  // Min-heap of (expiry, oid, version) for live-record accounting.
  struct Expiry {
    Time t;
    ObjectId oid;
    uint64_t version;
    bool operator>(const Expiry& other) const { return t > other.t; }
  };
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
      expiries_;
  std::deque<Operation> out_;
  uint64_t insertions_emitted_ = 0;
  uint64_t live_records_ = 0;
  uint64_t pending_first_reports_ = 0;
  uint64_t inserts_since_query_ = 0;
  double p_turn_off_ = 0;
  Time now_ = 0;
};

}  // namespace rexp

#endif  // REXP_WORKLOAD_GENERATOR_H_
