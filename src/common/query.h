// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The three query types of the paper (Section 2.1), unified into a single
// spatio-temporal trapezoid:
//
//   Type 1, timeslice:  Q = (R, t)          — rectangle R at time point t.
//   Type 2, window:     Q = (R, t1, t2)     — R swept over [t1, t2].
//   Type 3, moving:     Q = (R1, R2, t1, t2) — the (d+1)-dimensional
//       trapezoid connecting R1 at t1 to R2 at t2.
//
// Types 1 and 2 are special cases of type 3, which is how they are stored:
// every query carries two rectangles and two times, and its spatial extent
// at time t in [t_lo, t_hi] is obtained by linear interpolation.

#ifndef REXP_COMMON_QUERY_H_
#define REXP_COMMON_QUERY_H_

#include "common/check.h"
#include "common/types.h"
#include "common/vec.h"

namespace rexp {

enum class QueryType { kTimeslice, kWindow, kMoving };

template <int kDims>
struct Query {
  QueryType type = QueryType::kTimeslice;
  Rect<kDims> r1;  // Region at t_lo.
  Rect<kDims> r2;  // Region at t_hi (equals r1 for timeslice/window).
  Time t_lo = 0;
  Time t_hi = 0;

  static Query Timeslice(const Rect<kDims>& r, Time t) {
    REXP_DCHECK(r.IsValid());
    return Query{QueryType::kTimeslice, r, r, t, t};
  }

  static Query Window(const Rect<kDims>& r, Time t1, Time t2) {
    REXP_DCHECK(r.IsValid());
    REXP_DCHECK(t1 <= t2);
    return Query{QueryType::kWindow, r, r, t1, t2};
  }

  static Query Moving(const Rect<kDims>& r1, const Rect<kDims>& r2, Time t1,
                      Time t2) {
    REXP_DCHECK(r1.IsValid());
    REXP_DCHECK(r2.IsValid());
    REXP_DCHECK(t1 <= t2);
    return Query{QueryType::kMoving, r1, r2, t1, t2};
  }

  // Lower/upper bound of the query region in dimension d at time t,
  // t in [t_lo, t_hi]. For a degenerate time interval the region is r1.
  double LoAt(int d, Time t) const {
    if (t_hi <= t_lo) return r1.lo[d];
    double f = (t - t_lo) / (t_hi - t_lo);
    return r1.lo[d] + (r2.lo[d] - r1.lo[d]) * f;
  }
  double HiAt(int d, Time t) const {
    if (t_hi <= t_lo) return r1.hi[d];
    double f = (t - t_lo) / (t_hi - t_lo);
    return r1.hi[d] + (r2.hi[d] - r1.hi[d]) * f;
  }

  // Velocity of the query region's lower/upper bound in dimension d.
  double LoVel(int d) const {
    return t_hi > t_lo ? (r2.lo[d] - r1.lo[d]) / (t_hi - t_lo) : 0.0;
  }
  double HiVel(int d) const {
    return t_hi > t_lo ? (r2.hi[d] - r1.hi[d]) / (t_hi - t_lo) : 0.0;
  }
};

// The order of a k-nearest-neighbor answer: ascending squared distance,
// ties by object id. Every front-end's NN candidate type (`dist_sq`,
// `oid`) ranks by it, so merged answers equal a single tree's.
struct NearerFirst {
  template <typename Candidate>
  bool operator()(const Candidate& a, const Candidate& b) const {
    if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
    return a.oid < b.oid;
  }
};

}  // namespace rexp

#endif  // REXP_COMMON_QUERY_H_
