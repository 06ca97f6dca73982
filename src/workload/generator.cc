// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "workload/generator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "tree/tree.h"

namespace rexp {
namespace {

// Minimum speed used when converting an expiration distance to a time, so
// objects reporting near-zero speeds still receive finite expirations.
constexpr double kMinSpeedForExpiry = 0.05;

}  // namespace

WorkloadGenerator::WorkloadGenerator(const WorkloadSpec& spec)
    : spec_(spec), rng_(spec.seed) {
  REXP_CHECK(spec_.target_objects > 0);
  REXP_CHECK(spec_.ui > 0);
  if (spec_.data == WorkloadSpec::Data::kNetwork) {
    destinations_.reserve(spec_.num_destinations);
    for (int i = 0; i < spec_.num_destinations; ++i) {
      destinations_.push_back(
          Vec<2>{rng_.Uniform(0, spec_.space), rng_.Uniform(0, spec_.space)});
    }
  }
  p_turn_off_ = spec_.new_ob * static_cast<double>(spec_.target_objects) /
                static_cast<double>(spec_.total_insertions);
  // Populate gradually: first reports staggered over one update interval.
  // These objects count toward the population target while they are still
  // waiting to report, so the deficit spawner does not over-populate
  // during warm-up.
  pending_first_reports_ = spec_.target_objects;
  for (uint64_t i = 0; i < spec_.target_objects; ++i) {
    Time first_report = rng_.Uniform(0, spec_.ui);
    ObjectState state;
    state.active = true;
    objects_.push_back(state);
    events_.push(Event{first_report, static_cast<ObjectId>(i)});
  }
}

// ---------------------------------------------------------------------------
// Network movement model.

void WorkloadGenerator::ScheduleRoute(ObjectState* state, Time now,
                                      bool random_phase) {
  if (state->report_times.empty()) {
    // First route for this object: assign a speed class (equal
    // probability; 0.75, 1.5, or 3 km/min).
    state->max_speed = spec_.max_speeds[rng_.UniformInt(3)];
  }
  // Pick a random one-way route. After the first route, the object departs
  // from the destination it just reached.
  if (state->report_times.empty() || random_phase) {
    state->route_from = static_cast<int>(rng_.UniformInt(destinations_.size()));
  } else {
    state->route_from = state->route_to;
  }
  do {
    state->route_to = static_cast<int>(rng_.UniformInt(destinations_.size()));
  } while (state->route_to == state->route_from);

  Vec<2> delta = destinations_[state->route_to] -
                 destinations_[state->route_from];
  double length = delta.Norm();
  double v = state->max_speed;
  double t_acc = length / (3 * v);      // Accelerate over the first L/6.
  double total = 4 * length / (3 * v);  // Whole-route travel time.

  // Reports are confined to the acceleration and deceleration stretches
  // (Section 5.1); their number is chosen so the mean interval ~ UI.
  int n = std::max<int>(3, static_cast<int>(std::llround(total / spec_.ui)));
  state->report_times.clear();
  state->report_times.push_back(0);
  state->report_times.push_back(t_acc);           // Cruise entry.
  state->report_times.push_back(total - t_acc);   // Deceleration start.
  for (int i = 3; i < n; ++i) {
    if (i % 2 == 1) {
      state->report_times.push_back(rng_.Uniform(0, t_acc));
    } else {
      state->report_times.push_back(rng_.Uniform(total - t_acc, total));
    }
  }
  std::sort(state->report_times.begin(), state->report_times.end());

  if (random_phase) {
    // New object joining mid-route: start the route in the past so the
    // object is somewhere along it now.
    double t_off = rng_.Uniform(0, total);
    state->route_start_time = now - t_off;
    state->next_report = static_cast<int>(
        std::upper_bound(state->report_times.begin(),
                         state->report_times.end(), t_off) -
        state->report_times.begin());
  } else {
    state->route_start_time = now;
    state->next_report = 1;  // The time-0 report is being emitted now.
  }
}

void WorkloadGenerator::RouteKinematics(const ObjectState& state, Time t,
                                        Vec<2>* pos, Vec<2>* vel) const {
  Vec<2> from = destinations_[state.route_from];
  Vec<2> delta = destinations_[state.route_to] - from;
  double length = delta.Norm();
  Vec<2> dir = delta * (1.0 / length);
  double v = state.max_speed;
  double a = 3 * v * v / length;       // v^2 = 2 a (L/6).
  double t_acc = v / a;                // = length / (3 v).
  double total = 4 * length / (3 * v);
  double tau = std::clamp(t - state.route_start_time, 0.0, total);

  double s, speed;
  if (tau < t_acc) {  // Accelerating.
    speed = a * tau;
    s = 0.5 * a * tau * tau;
  } else if (tau < total - t_acc) {  // Cruising.
    speed = v;
    s = length / 6 + v * (tau - t_acc);
  } else {  // Decelerating.
    double remain = total - tau;
    speed = a * remain;
    s = length - 0.5 * a * remain * remain;
  }
  *pos = from + dir * s;
  *vel = dir * speed;
}

// ---------------------------------------------------------------------------
// Reporting.

Time WorkloadGenerator::ExpirationFor(Time now, double speed) const {
  if (spec_.expiration == WorkloadSpec::Expiration::kDuration) {
    return now + spec_.exp_t;
  }
  return now + spec_.exp_d / std::max(speed, kMinSpeedForExpiry);
}

void WorkloadGenerator::TrackRecord(ObjectId oid, const ObjectState& state) {
  expiries_.push(Expiry{state.record.t_exp, oid, state.version});
}

void WorkloadGenerator::AdvanceLiveCount(Time now) {
  while (!expiries_.empty() && expiries_.top().t < now) {
    Expiry e = expiries_.top();
    expiries_.pop();
    // Only the object's current record counts; superseded records were
    // discounted when they were replaced.
    if (objects_[e.oid].version == e.version) {
      REXP_CHECK(live_records_ > 0);
      --live_records_;
    }
  }
}

void WorkloadGenerator::EmitReport(ObjectId oid, Time now) {
  ObjectState& state = objects_[oid];
  Vec<2> pos, vel;
  if (spec_.data == WorkloadSpec::Data::kNetwork) {
    RouteKinematics(state, now, &pos, &vel);
  } else {
    if (state.version == 0) {
      pos = Vec<2>{rng_.Uniform(0, spec_.space),
                   rng_.Uniform(0, spec_.space)};
    } else {
      pos = state.record.PointAt(now);
      for (int d = 0; d < 2; ++d) {
        pos[d] = std::clamp(pos[d], 0.0, spec_.space);
      }
    }
    double speed = rng_.Uniform(0, 3.0);
    double angle = rng_.Uniform(0, 6.283185307179586);
    vel = Vec<2>{speed * std::cos(angle), speed * std::sin(angle)};
    // Keep objects inside the space: point the velocity inward near the
    // border.
    for (int d = 0; d < 2; ++d) {
      if (pos[d] < 1.0) vel[d] = std::abs(vel[d]);
      if (pos[d] > spec_.space - 1.0) vel[d] = -std::abs(vel[d]);
    }
  }

  Operation op;
  op.time = now;
  op.oid = oid;
  Time t_exp = ExpirationFor(now, vel.Norm());
  Tpbr<2> record = MakeMovingPoint<2>(pos, vel, now, t_exp);
  if (state.version == 0) {
    op.kind = Operation::Kind::kInsert;
  } else {
    op.kind = Operation::Kind::kUpdate;
    op.old_record = state.record;
  }
  op.record = record;

  bool old_live = state.version > 0 && state.record.t_exp >= now;
  if (!old_live) ++live_records_;
  state.record = record;
  ++state.version;
  TrackRecord(oid, state);

  out_.push_back(op);
  ++insertions_emitted_;
  MaybeEmitQuery(now);
}

// ---------------------------------------------------------------------------
// Queries.

void WorkloadGenerator::MaybeEmitQuery(Time now) {
  if (++inserts_since_query_ < spec_.insertions_per_query) return;
  inserts_since_query_ = 0;

  const double w = spec_.QueryWindow();
  const double side = spec_.QuerySide();
  double ta = now + rng_.Uniform(0, w);
  double tb = now + rng_.Uniform(0, w);
  if (ta > tb) std::swap(ta, tb);

  Operation op;
  op.kind = Operation::Kind::kQuery;
  op.time = now;

  double roll = rng_.NextDouble();
  if (roll < spec_.p_timeslice) {
    Vec<2> c{rng_.Uniform(0, spec_.space), rng_.Uniform(0, spec_.space)};
    op.query = Query<2>::Timeslice(Rect<2>::Cube(c, side), ta);
  } else if (roll < spec_.p_timeslice + spec_.p_window) {
    Vec<2> c{rng_.Uniform(0, spec_.space), rng_.Uniform(0, spec_.space)};
    op.query = Query<2>::Window(Rect<2>::Cube(c, side), ta, tb);
  } else {
    // Moving query: the center follows the predicted trajectory of a
    // random live object.
    const Tpbr<2>* track = nullptr;
    for (int attempt = 0; attempt < 32 && track == nullptr; ++attempt) {
      const ObjectState& s = objects_[rng_.UniformInt(objects_.size())];
      if (s.active && s.version > 0 && s.record.t_exp >= now) {
        track = &s.record;
      }
    }
    if (track != nullptr) {
      op.query = Query<2>::Moving(Rect<2>::Cube(track->PointAt(ta), side),
                                  Rect<2>::Cube(track->PointAt(tb), side),
                                  ta, tb);
    } else {
      Vec<2> c{rng_.Uniform(0, spec_.space), rng_.Uniform(0, spec_.space)};
      op.query = Query<2>::Window(Rect<2>::Cube(c, side), ta, tb);
    }
  }
  out_.push_back(op);
}

// ---------------------------------------------------------------------------
// Main loop.

double WorkloadGenerator::RouteDuration(const ObjectState& state) const {
  Vec<2> delta =
      destinations_[state.route_to] - destinations_[state.route_from];
  return 4 * delta.Norm() / (3 * state.max_speed);
}

// The absolute time of the object's next report event: the next scheduled
// report of the current route, or the route's end (where the next route
// begins with its own time-0 report).
Time WorkloadGenerator::NextEventTime(const ObjectState& state, Time now) {
  Time next;
  if (spec_.data == WorkloadSpec::Data::kNetwork) {
    if (state.next_report < static_cast<int>(state.report_times.size())) {
      next = state.route_start_time + state.report_times[state.next_report];
    } else {
      next = state.route_start_time + RouteDuration(state);
    }
  } else {
    next = now + rng_.Uniform(0, 2 * spec_.ui);
  }
  return next <= now ? now + 1e-6 : next;
}

void WorkloadGenerator::SpawnObject(Time now) {
  ObjectState state;
  state.active = true;
  ObjectId oid = static_cast<ObjectId>(objects_.size());
  objects_.push_back(state);
  if (spec_.data == WorkloadSpec::Data::kNetwork) {
    ScheduleRoute(&objects_[oid], now, /*random_phase=*/true);
  }
  EmitReport(oid, now);
  events_.push(Event{NextEventTime(objects_[oid], now), oid});
}

bool WorkloadGenerator::Next(Operation* op) {
  while (out_.empty()) {
    if (insertions_emitted_ >= spec_.total_insertions || events_.empty()) {
      return false;
    }
    Event ev = events_.top();
    events_.pop();
    now_ = std::max(now_, ev.time);
    AdvanceLiveCount(now_);

    ObjectState& state = objects_[ev.oid];
    if (!state.active) continue;
    if (state.version == 0 && pending_first_reports_ > 0) {
      // An initial object's first report (spawned objects report inline
      // and never wait for an event while at version 0).
      --pending_first_reports_;
    }

    if (state.version > 0 && rng_.Bernoulli(p_turn_off_)) {
      // The object disappears without deregistering (Section 5.1); a new
      // object replaces it.
      state.active = false;
      SpawnObject(now_);
    } else {
      if (spec_.data == WorkloadSpec::Data::kNetwork) {
        if (state.report_times.empty()) {
          // First report of an initial object: join a route mid-way.
          ScheduleRoute(&state, now_, /*random_phase=*/true);
        } else if (state.next_report >=
                   static_cast<int>(state.report_times.size())) {
          // Route completed: begin the next route from the destination
          // (sets next_report past the time-0 report emitted below).
          ScheduleRoute(&state, now_, /*random_phase=*/false);
        } else {
          // This event is the scheduled report `next_report`: consume it.
          ++state.next_report;
        }
      }
      EmitReport(ev.oid, now_);
      events_.push(Event{NextEventTime(objects_[ev.oid], now_), ev.oid});
    }

    // Keep the live population near the target (the paper's generator
    // adds objects to hold ~100,000 leaf entries). Objects still waiting
    // for their first report count toward the target.
    uint64_t spawn_cap = 1 + spec_.target_objects / 1000;
    while (live_records_ + pending_first_reports_ < spec_.target_objects &&
           spawn_cap-- > 0 &&
           insertions_emitted_ < spec_.total_insertions) {
      SpawnObject(now_);
    }
  }
  *op = out_.front();
  out_.pop_front();
  return true;
}

}  // namespace rexp
