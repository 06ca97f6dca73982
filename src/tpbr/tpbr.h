// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Time-parameterized bounding rectangles (TPBRs) — the central data type of
// the R^exp-tree (paper Section 4.1). A TPBR is a d-dimensional rectangle
// whose lower and upper bounds in each dimension move linearly with time,
// plus an expiration time after which the rectangle's contents are no
// longer valid:
//
//   [ lo_d + vlo_d * t ,  hi_d + vhi_d * t ]   for t <= t_exp.
//
// All TPBRs in this library are stored relative to a global reference time
// t = 0 (the index creation time, as in the paper); the bounds at absolute
// time t are obtained by LoAt/HiAt. A moving point is represented as a
// degenerate TPBR (lo == hi, vlo == vhi), which lets a single set of
// algorithms bound both data points and child rectangles.

#ifndef REXP_TPBR_TPBR_H_
#define REXP_TPBR_TPBR_H_

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/types.h"
#include "common/vec.h"

namespace rexp {

// The bounding-rectangle types studied in the paper (Section 4.1.2–4.1.4).
enum class TpbrKind {
  // TPR-tree rectangles: minimum at computation time; bound velocities are
  // the extreme velocities of the enclosed entries. Valid forever; ignores
  // expiration times.
  kConservative,
  // Zero-velocity bounds covering every entry until its expiration time.
  // Velocities need not be stored, nearly doubling internal fan-out.
  // Requires finite expiration times.
  kStatic,
  // Minimum at computation time, like conservative, but the bound
  // velocities are relaxed as much as the expiration times allow.
  kUpdateMinimum,
  // Per-dimension convex-hull bridges minimizing the area integral over
  // the time horizon; dimensions coupled through the Lemma 4.2 median.
  kNearOptimal,
  // Exact minimum-area-integral TPBR (sweeping median lines; Section
  // 4.1.4). Expensive; evaluated by the paper to show near-optimal is
  // good enough.
  kOptimal,
};

const char* TpbrKindName(TpbrKind kind);

template <int kDims>
struct Tpbr {
  double lo[kDims] = {};   // Lower bound at reference time 0.
  double hi[kDims] = {};   // Upper bound at reference time 0.
  double vlo[kDims] = {};  // Velocity of the lower bound.
  double vhi[kDims] = {};  // Velocity of the upper bound.
  Time t_exp = kNeverExpires;

  double LoAt(int d, Time t) const { return lo[d] + vlo[d] * t; }
  double HiAt(int d, Time t) const { return hi[d] + vhi[d] * t; }

  // Extent of dimension d at time t (may be negative past the lifetime).
  double ExtentAt(int d, Time t) const { return HiAt(d, t) - LoAt(d, t); }

  // True if the entry is live at time t. Liveness is closed: an entry is
  // still valid exactly at its expiration time.
  bool LiveAt(Time t) const { return t <= t_exp; }

  // Position of a degenerate (point) TPBR at time t.
  Vec<kDims> PointAt(Time t) const {
    Vec<kDims> p;
    for (int d = 0; d < kDims; ++d) p[d] = LoAt(d, t);
    return p;
  }

  // True if this rectangle contains `inner` throughout [from, to]
  // (inclusive), up to tolerance `eps`. Bounds are linear, so checking the
  // interval endpoints suffices.
  bool Bounds(const Tpbr& inner, Time from, Time to, double eps = 0) const {
    REXP_DCHECK(from <= to);
    for (int d = 0; d < kDims; ++d) {
      for (Time t : {from, to}) {
        if (LoAt(d, t) > inner.LoAt(d, t) + eps) return false;
        if (HiAt(d, t) < inner.HiAt(d, t) - eps) return false;
      }
    }
    return true;
  }

  // Grows this rectangle to the componentwise union with `r`: min of the
  // lower positions and velocities, max of the upper ones and of the
  // expiries. The result contains both inputs for all t >= 0 (both are in
  // reference-time-0 coordinates).
  void Extend(const Tpbr& r) {
    for (int d = 0; d < kDims; ++d) {
      lo[d] = std::min(lo[d], r.lo[d]);
      hi[d] = std::max(hi[d], r.hi[d]);
      vlo[d] = std::min(vlo[d], r.vlo[d]);
      vhi[d] = std::max(vhi[d], r.vhi[d]);
    }
    t_exp = std::max(t_exp, r.t_exp);
  }

  // The "natural" expiration time of a shrinking rectangle: the first time
  // (at or after `t_from`) at which some dimension's extent reaches zero.
  // A bounding rectangle cannot contain a live entry after that, so it can
  // be treated as expired (paper Section 4.1.1). Returns kNeverExpires if
  // no dimension shrinks.
  Time NaturalExpiry(Time t_from) const {
    Time result = kNeverExpires;
    for (int d = 0; d < kDims; ++d) {
      double w = vhi[d] - vlo[d];
      if (w < 0) {
        Time z = -(hi[d] - lo[d]) / w;  // ExtentAt(d, z) == 0.
        if (z < t_from) z = t_from;     // Extent already ~0 now.
        if (z < result) result = z;
      }
    }
    return result;
  }

  // The effective expiration used for query pruning: the stored expiration
  // combined with the natural one.
  Time EffectiveExpiry(Time t_from) const {
    Time natural = NaturalExpiry(t_from);
    return t_exp < natural ? t_exp : natural;
  }
};

// Squared distance from `point` to `region` evaluated at time t (zero if
// the point lies inside).
template <int kDims>
double MinDistSqAt(const Vec<kDims>& point, const Tpbr<kDims>& region,
                   Time t) {
  double d2 = 0;
  for (int d = 0; d < kDims; ++d) {
    double lo = region.LoAt(d, t);
    double hi = region.HiAt(d, t);
    double delta = 0;
    if (point[d] < lo) {
      delta = lo - point[d];
    } else if (point[d] > hi) {
      delta = point[d] - hi;
    }
    d2 += delta * delta;
  }
  return d2;
}

}  // namespace rexp

#endif  // REXP_TPBR_TPBR_H_
