// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "tpbr/tpbr_compute.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <new>
#include <vector>

#include "common/check.h"
#include "hull/convex_hull.h"
#include "tpbr/poly.h"

namespace rexp {
namespace {

using hull::Line;
using hull::Point2;
using internal_tpbr::Poly;

// Maximum expiration time over the entries.
template <int kDims>
Time MaxExpiry(std::span<const Tpbr<kDims>> entries) {
  Time m = 0;
  for (const auto& e : entries) m = std::max(m, e.t_exp);
  return m;
}

// ---------------------------------------------------------------------------
// Conservative rectangles (Section 4.1.2, TPR-tree style).

template <int kDims>
Tpbr<kDims> ComputeConservative(std::span<const Tpbr<kDims>> entries,
                                Time t_upd) {
  Tpbr<kDims> out;
  for (int d = 0; d < kDims; ++d) {
    double lo_pos = entries[0].LoAt(d, t_upd);
    double hi_pos = entries[0].HiAt(d, t_upd);
    double vlo = entries[0].vlo[d];
    double vhi = entries[0].vhi[d];
    for (size_t i = 1; i < entries.size(); ++i) {
      lo_pos = std::min(lo_pos, entries[i].LoAt(d, t_upd));
      hi_pos = std::max(hi_pos, entries[i].HiAt(d, t_upd));
      vlo = std::min(vlo, entries[i].vlo[d]);
      vhi = std::max(vhi, entries[i].vhi[d]);
    }
    out.lo[d] = lo_pos - vlo * t_upd;  // Normalize to reference time 0.
    out.hi[d] = hi_pos - vhi * t_upd;
    out.vlo[d] = vlo;
    out.vhi[d] = vhi;
  }
  out.t_exp = MaxExpiry(entries);
  return out;
}

// ---------------------------------------------------------------------------
// Static rectangles: zero-velocity bounds covering each entry's lifetime.

template <int kDims>
Tpbr<kDims> ComputeStatic(std::span<const Tpbr<kDims>> entries, Time t_upd) {
  Tpbr<kDims> out;
  for (int d = 0; d < kDims; ++d) {
    double lo = entries[0].LoAt(d, t_upd);
    double hi = entries[0].HiAt(d, t_upd);
    for (const auto& e : entries) {
      REXP_CHECK(IsFiniteTime(e.t_exp));
      lo = std::min(lo, std::min(e.LoAt(d, t_upd), e.LoAt(d, e.t_exp)));
      hi = std::max(hi, std::max(e.HiAt(d, t_upd), e.HiAt(d, e.t_exp)));
    }
    out.lo[d] = lo;
    out.hi[d] = hi;
    out.vlo[d] = out.vhi[d] = 0;
  }
  out.t_exp = MaxExpiry(entries);
  return out;
}

// ---------------------------------------------------------------------------
// Update-minimum rectangles: minimum at t_upd, bound velocities relaxed as
// much as expiration times allow (Section 4.1.2, Figure 4).

template <int kDims>
Tpbr<kDims> ComputeUpdateMinimum(std::span<const Tpbr<kDims>> entries,
                                 Time t_upd) {
  Tpbr<kDims> out;
  for (int d = 0; d < kDims; ++d) {
    double lo_pos = entries[0].LoAt(d, t_upd);
    double hi_pos = entries[0].HiAt(d, t_upd);
    for (const auto& e : entries) {
      lo_pos = std::min(lo_pos, e.LoAt(d, t_upd));
      hi_pos = std::max(hi_pos, e.HiAt(d, t_upd));
    }
    // The loosest velocities that keep every entry inside until it expires.
    // For a finite entry it suffices to contain its expiration endpoint;
    // for a never-expiring entry the bound must move at least as fast.
    bool have_vlo = false, have_vhi = false;
    double vlo = 0, vhi = 0;
    for (const auto& e : entries) {
      if (IsFiniteTime(e.t_exp)) {
        double dt = e.t_exp - t_upd;
        if (dt <= 0) continue;  // Expires now: position constraint only.
        double need_hi = (e.HiAt(d, e.t_exp) - hi_pos) / dt;
        double need_lo = (e.LoAt(d, e.t_exp) - lo_pos) / dt;
        vhi = have_vhi ? std::max(vhi, need_hi) : need_hi;
        vlo = have_vlo ? std::min(vlo, need_lo) : need_lo;
      } else {
        vhi = have_vhi ? std::max(vhi, e.vhi[d]) : e.vhi[d];
        vlo = have_vlo ? std::min(vlo, e.vlo[d]) : e.vlo[d];
      }
      have_vhi = have_vlo = true;
    }
    out.lo[d] = lo_pos - vlo * t_upd;
    out.hi[d] = hi_pos - vhi * t_upd;
    out.vlo[d] = vlo;
    out.vhi[d] = vhi;
  }
  out.t_exp = MaxExpiry(entries);
  return out;
}

// ---------------------------------------------------------------------------
// Near-optimal and optimal rectangles (Sections 4.1.3–4.1.4).

// A bound's hull chains live in the (local-time, position) plane, one
// dimension at a time: every entry contributes its position at t_upd
// (x = 0) and, if it expires after t_upd, its position at expiry
// (x = t_exp - t_upd). Only the x > 0 points need ordering, and their
// order is the same in every dimension and for both chains, so one sort
// of the expiring entries serves the whole bound.
struct ExpiryKey {
  double tau;  // t_exp - t_upd.
  int index;   // Into the entries.
};

// Scratch for one bound: the expiry order, room to bucket it, and one
// chain's points. Stack storage for node-sized entry sets, heap beyond.
// Left uninitialised: every slot is written before it is read.
class BoundScratch {
 public:
  explicit BoundScratch(size_t entries) {
    if (entries > kStackEntries) {
      heap_keys_.resize(2 * entries);
      heap_counts_.resize(entries + 1);
      heap_points_.resize(entries + 1);
      keys_ = heap_keys_.data();
      counts_ = heap_counts_.data();
      points_ = heap_points_.data();
    }
  }
  // Room for 2 * entries keys: the sorted keys, then the bucketed ones.
  ExpiryKey* keys() { return keys_; }
  // Room for entries + 1 bucket counts.
  int* counts() { return counts_; }
  // Room for entries + 1 points: the one x = 0 point plus one per key.
  Point2* points() { return points_; }

 private:
  static constexpr size_t kStackEntries = 256;
  ExpiryKey stack_keys_[2 * kStackEntries];
  int stack_counts_[kStackEntries + 1];
  alignas(Point2) std::byte stack_points_[(kStackEntries + 1) * sizeof(Point2)];
  std::vector<ExpiryKey> heap_keys_;
  std::vector<int> heap_counts_;
  std::vector<Point2> heap_points_;
  ExpiryKey* keys_ = stack_keys_;
  int* counts_ = stack_counts_;
  Point2* points_ = std::launder(reinterpret_cast<Point2*>(stack_points_));
};

inline bool KeyLess(const ExpiryKey& a, const ExpiryKey& b) {
  return a.tau != b.tau ? a.tau < b.tau : a.index < b.index;
}

// Key sets up to this size are sorted by std::sort; larger ones by the
// bucket pass in SortedExpiries.
constexpr int kMaxComparisonSortKeys = 32;

// Writes the entries expiring after t_upd into scratch->keys() in
// ascending tau (ties by index); returns their number. Every key is
// distinct, so any correct sort gives the same order. Node-sized sets are
// first distributed over one bucket per key by a function monotone in
// tau, which only groups keys, then finished by an insertion sort that
// moves each key within its bucket: far fewer mispredicted branches than
// a comparison sort.
template <int kDims>
int SortedExpiries(std::span<const Tpbr<kDims>> entries, Time t_upd,
                   BoundScratch* scratch) {
  ExpiryKey* keys = scratch->keys();
  int n = 0;
  double lo = kNeverExpires, hi = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (!IsFiniteTime(entries[i].t_exp)) continue;
    double tau = entries[i].t_exp - t_upd;
    if (tau > 0) {
      keys[n++] = ExpiryKey{tau, static_cast<int>(i)};
      lo = std::min(lo, tau);
      hi = std::max(hi, tau);
    }
  }
  if (n <= 1 || !(hi > lo)) return n;  // Already in index order.
  double scale = n / (hi - lo);
  if (n <= kMaxComparisonSortKeys || !std::isfinite(scale)) {
    std::sort(keys, keys + n, KeyLess);
    return n;
  }
  auto bucket = [&](double tau) {
    return std::min(static_cast<int>((tau - lo) * scale), n - 1);
  };
  int* starts = scratch->counts();
  std::fill(starts, starts + n + 1, 0);
  for (int i = 0; i < n; ++i) ++starts[bucket(keys[i].tau) + 1];
  for (int b = 0; b < n; ++b) starts[b + 1] += starts[b];
  ExpiryKey* bucketed = keys + n;
  for (int i = 0; i < n; ++i) {
    bucketed[starts[bucket(keys[i].tau)]++] = keys[i];
  }
  for (int i = 0; i < n; ++i) {
    ExpiryKey key = bucketed[i];
    int j = i;
    for (; j > 0 && KeyLess(key, keys[j - 1]); --j) keys[j] = keys[j - 1];
    keys[j] = key;
  }
  return n;
}

// Builds dimension d's upper (is_upper) or lower chain into `pts`;
// returns its length. The x = 0 points collapse up front to the extreme
// one, the only one the chain can keep (ties broken as the chain builder
// breaks them).
template <int kDims>
int BuildDimChain(std::span<const Tpbr<kDims>> entries, int d, Time t_upd,
                  const ExpiryKey* keys, int num_keys, bool is_upper,
                  Point2* pts) {
  auto at = [&](const Tpbr<kDims>& e, Time t) {
    return is_upper ? e.HiAt(d, t) : e.LoAt(d, t);
  };
  double y0 = at(entries[0], t_upd);
  for (size_t i = 1; i < entries.size(); ++i) {
    double y = at(entries[i], t_upd);
    if (is_upper ? y >= y0 : y < y0) y0 = y;
  }
  pts[0] = Point2{0, y0};
  for (int j = 0; j < num_keys; ++j) {
    const Tpbr<kDims>& e = entries[keys[j].index];
    pts[j + 1] = Point2{keys[j].tau, at(e, e.t_exp)};
  }
  return is_upper ? hull::UpperChainOfSorted(pts, num_keys + 1)
                  : hull::LowerChainOfSorted(pts, num_keys + 1);
}

// Lowers/raises a candidate bounding line so it dominates the rays of
// never-expiring entries (slope beyond their extreme velocity), then
// recomputes the tightest intercept via the support function (whose
// maximum is attained on a hull vertex, so evaluating it over the chain
// is exact).
template <int kDims>
Line EnforceRays(Line line, std::span<const Tpbr<kDims>> entries, int d,
                 const Point2* chain, int n, bool is_upper) {
  bool has_rays = false;
  double ray_slope = 0;
  for (const auto& e : entries) {
    if (IsFiniteTime(e.t_exp)) continue;
    double v = is_upper ? e.vhi[d] : e.vlo[d];
    ray_slope = !has_rays  ? v
                : is_upper ? std::max(ray_slope, v)
                           : std::min(ray_slope, v);
    has_rays = true;
  }
  if (!has_rays) return line;
  bool violated = is_upper ? line.slope < ray_slope : line.slope > ray_slope;
  if (!violated) return line;
  double slope = ray_slope;
  double intercept = chain[0].y - slope * chain[0].x;
  for (int i = 1; i < n; ++i) {
    double a = chain[i].y - slope * chain[i].x;
    intercept = is_upper ? std::max(intercept, a) : std::min(intercept, a);
  }
  return Line{intercept, slope};
}

// Bounds one dimension with the hull-bridge construction, median at m
// (local time). Returns {upper, lower} lines in local time.
struct DimBounds {
  Line upper;
  Line lower;
};

template <int kDims>
DimBounds BoundDimension(std::span<const Tpbr<kDims>> entries, int d,
                         Time t_upd, const ExpiryKey* keys, int num_keys,
                         double m, Point2* pts) {
  DimBounds out;
  int nu = BuildDimChain(entries, d, t_upd, keys, num_keys,
                         /*is_upper=*/true, pts);
  out.upper = EnforceRays(hull::UpperBridge(pts, nu, m), entries, d, pts, nu,
                          /*is_upper=*/true);
  int nl = BuildDimChain(entries, d, t_upd, keys, num_keys,
                         /*is_upper=*/false, pts);
  out.lower = EnforceRays(hull::LowerBridge(pts, nl, m), entries, d, pts, nl,
                          /*is_upper=*/false);
  return out;
}

// Converts per-dimension local-time lines into a reference-time-0 TPBR.
template <int kDims>
Tpbr<kDims> AssembleFromLines(const DimBounds (&bounds)[kDims], Time t_upd,
                              Time t_exp) {
  Tpbr<kDims> out;
  for (int d = 0; d < kDims; ++d) {
    const Line& u = bounds[d].upper;
    const Line& l = bounds[d].lower;
    out.hi[d] = u.intercept - u.slope * t_upd;
    out.vhi[d] = u.slope;
    out.lo[d] = l.intercept - l.slope * t_upd;
    out.vlo[d] = l.slope;
  }
  out.t_exp = t_exp;
  return out;
}

// Couples the dimensions through the Lemma 4.2 median: visits them in
// `order`, bounding each by bound_dim(d, m) with m computed from the
// extents of the dimensions already bounded.
template <int kDims, typename BoundDim>
Tpbr<kDims> CoupleDimensions(const int (&order)[kDims], double delta,
                             Time t_upd, Time max_exp, BoundDim bound_dim) {
  DimBounds bounds[kDims];
  double extent_values[kDims], extent_slopes[kDims];
  for (int k = 0; k < kDims; ++k) {
    int d = order[k];
    double m = MedianFromExtents({extent_values, static_cast<size_t>(k)},
                                 {extent_slopes, static_cast<size_t>(k)},
                                 delta);
    bounds[d] = bound_dim(d, m);
    extent_values[k] = bounds[d].upper.intercept - bounds[d].lower.intercept;
    extent_slopes[k] = bounds[d].upper.slope - bounds[d].lower.slope;
  }
  return AssembleFromLines<kDims>(bounds, t_upd, max_exp);
}

// The line through chain vertices p and q (p.x < q.x), as the hull
// code's edge line computes it.
Line EdgeThrough(const Point2& p, const Point2& q) {
  double slope = (q.y - p.y) / (q.x - p.x);
  return Line{p.y - slope * p.x, slope};
}

// Closed form of one chain's bound for a never-expiring entry (slope
// `ray_slope` on this chain) plus a finite one. The chain is (0, y0) and,
// if the finite entry expires after t_upd, its expiry point p: one edge,
// which is the bridge for every median. EnforceRays then lifts it to the
// ray's slope if it undercuts the ray.
Line RayChainBound(double y0, const Point2& p, bool has_p, double ray_slope,
                   bool is_upper) {
  Line line = has_p ? EdgeThrough(Point2{0, y0}, p) : Line{y0, 0};
  bool violated = is_upper ? line.slope < ray_slope : line.slope > ray_slope;
  if (!violated) return line;
  double intercept = y0 - ray_slope * 0.0;
  double a = p.y - ray_slope * p.x;
  if (has_p) {
    intercept = is_upper ? std::max(intercept, a) : std::min(intercept, a);
  }
  return Line{intercept, ray_slope};
}

// Closed form of one chain's bound over (0, y0) and the expiry points
// a, b of two finite entries, `num_keys` of which expire after t_upd (a
// first, and a.x <= b.x). Follows the chain builder: points sharing an x
// keep the last highest (upper) or first lowest (lower), and a middle
// point on the wrong side of the outer edge is dropped. Then the bridge
// takes the edge whose x-span holds the clamped median m. The edge is
// chosen by selects.
Line FinitePairChainBound(double y0, const Point2& a, const Point2& b,
                          int num_keys, double m, bool is_upper) {
  if (num_keys == 0) return Line{y0, 0};
  bool two = num_keys == 2;
  bool same_x = a.x == b.x;
  bool keep_b = is_upper ? b.y >= a.y : b.y < a.y;
  double turn = (a.x - 0.0) * (b.y - y0) - (a.y - y0) * (b.x - 0.0);
  bool drop_a = is_upper ? turn >= 0 : turn <= 0;
  double mc = std::max(0.0, std::min(b.x, m));
  bool edge_ab = two && !same_x && !drop_a && a.x < mc;
  bool end_b = edge_ab || (two && (same_x ? keep_b : drop_a));
  return EdgeThrough(edge_ab ? a : Point2{0, y0}, end_b ? b : a);
}

template <int kDims>
Tpbr<kDims> ComputeNearOptimal(std::span<const Tpbr<kDims>> entries,
                               Time t_upd, double horizon, Rng* rng) {
  Time max_exp = MaxExpiry(entries);
  double delta = IsFiniteTime(max_exp) ? std::min(horizon, max_exp - t_upd)
                                       : horizon;
  if (delta <= 0) return ComputeConservative(entries, t_upd);

  int order[kDims];
  if (rng != nullptr) {
    rng->Permutation(kDims, order);
  } else {
    for (int d = 0; d < kDims; ++d) order[d] = d;
  }

  // ChooseSubtree's what-if bounds: two entries, of which at least one
  // is finite. Closed forms of the general path below, same expressions
  // in the same order.
  if (entries.size() == 2 && (IsFiniteTime(entries[0].t_exp) ||
                              IsFiniteTime(entries[1].t_exp))) {
    const Tpbr<kDims>& e0 = entries[0];
    const Tpbr<kDims>& e1 = entries[1];
    // The x = 0 point of each chain, with BuildDimChain's tie rule.
    auto upper_y0 = [&](int d) {
      double y0 = e0.HiAt(d, t_upd), y = e1.HiAt(d, t_upd);
      return y >= y0 ? y : y0;
    };
    auto lower_y0 = [&](int d) {
      double y0 = e0.LoAt(d, t_upd), y = e1.LoAt(d, t_upd);
      return y < y0 ? y : y0;
    };
    bool finite0 = IsFiniteTime(e0.t_exp), finite1 = IsFiniteTime(e1.t_exp);
    if (finite0 != finite1) {
      // A child bound that never expires plus a record. One edge per
      // chain, so the median cannot matter.
      const Tpbr<kDims>& ray = finite0 ? e1 : e0;
      const Tpbr<kDims>& rec = finite0 ? e0 : e1;
      double tau = rec.t_exp - t_upd;
      bool has_p = tau > 0;
      DimBounds bounds[kDims];
      for (int d = 0; d < kDims; ++d) {
        bounds[d].upper =
            RayChainBound(upper_y0(d), Point2{tau, rec.HiAt(d, rec.t_exp)},
                          has_p, ray.vhi[d], /*is_upper=*/true);
        bounds[d].lower =
            RayChainBound(lower_y0(d), Point2{tau, rec.LoAt(d, rec.t_exp)},
                          has_p, ray.vlo[d], /*is_upper=*/false);
      }
      return AssembleFromLines<kDims>(bounds, t_upd, max_exp);
    }
    // Two finite entries: up to three chain points, in expiry order.
    double tau0 = e0.t_exp - t_upd, tau1 = e1.t_exp - t_upd;
    int num_keys = (tau0 > 0) + (tau1 > 0);
    bool first1 = tau0 > 0 ? tau1 > 0 && tau1 < tau0 : true;
    const Tpbr<kDims>& ea = first1 ? e1 : e0;
    const Tpbr<kDims>& eb = first1 ? e0 : e1;
    double tau_a = first1 ? tau1 : tau0, tau_b = first1 ? tau0 : tau1;
    return CoupleDimensions<kDims>(
        order, delta, t_upd, max_exp, [&](int d, double m) {
          return DimBounds{
              FinitePairChainBound(
                  upper_y0(d), Point2{tau_a, ea.HiAt(d, ea.t_exp)},
                  Point2{tau_b, eb.HiAt(d, eb.t_exp)}, num_keys, m,
                  /*is_upper=*/true),
              FinitePairChainBound(
                  lower_y0(d), Point2{tau_a, ea.LoAt(d, ea.t_exp)},
                  Point2{tau_b, eb.LoAt(d, eb.t_exp)}, num_keys, m,
                  /*is_upper=*/false)};
        });
  }

  BoundScratch scratch(entries.size());
  int num_keys = SortedExpiries(entries, t_upd, &scratch);
  return CoupleDimensions<kDims>(
      order, delta, t_upd, max_exp, [&](int d, double m) {
        return BoundDimension(entries, d, t_upd, scratch.keys(), num_keys, m,
                              scratch.points());
      });
}

// Candidate (upper, lower) bridge pairs of one dimension as the median
// line sweeps [0, delta]: one pair per interval between hull-vertex time
// coordinates (Section 4.1.4's "sweeping median lines").
std::vector<DimBounds> SweepCandidates(const std::vector<Point2>& uh,
                                       const std::vector<Point2>& lh,
                                       double delta) {
  std::vector<double> cuts;
  cuts.push_back(0);
  cuts.push_back(delta);
  for (const Point2& p : uh) {
    if (p.x > 0 && p.x < delta) cuts.push_back(p.x);
  }
  for (const Point2& p : lh) {
    if (p.x > 0 && p.x < delta) cuts.push_back(p.x);
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<DimBounds> result;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    if (cuts[i + 1] - cuts[i] <= 0) continue;
    double m = (cuts[i] + cuts[i + 1]) / 2;
    result.push_back(DimBounds{hull::UpperBridge(uh, m),
                               hull::LowerBridge(lh, m)});
  }
  if (result.empty()) {
    result.push_back(
        DimBounds{hull::UpperBridge(uh, 0), hull::LowerBridge(lh, 0)});
  }
  return result;
}

template <int kDims>
Tpbr<kDims> ComputeOptimal(std::span<const Tpbr<kDims>> entries, Time t_upd,
                           double horizon, Rng* rng) {
  // Never-expiring entries make the enumeration unbounded; the paper notes
  // the generalization but evaluates finite workloads. Fall back.
  for (const auto& e : entries) {
    if (!IsFiniteTime(e.t_exp)) {
      return ComputeNearOptimal(entries, t_upd, horizon, rng);
    }
  }
  Time max_exp = MaxExpiry(entries);
  double delta = std::min(horizon, max_exp - t_upd);
  if (delta <= 0) return ComputeConservative(entries, t_upd);

  // Per-dimension hulls of the trajectory endpoints (built once; bridges
  // for different medians reuse them).
  std::vector<Point2> uh[kDims], lh[kDims];
  std::vector<DimBounds> candidates[kDims];
  {
    BoundScratch scratch(entries.size());
    int num_keys = SortedExpiries(entries, t_upd, &scratch);
    Point2* pts = scratch.points();
    for (int d = 0; d < kDims; ++d) {
      int nu = BuildDimChain(entries, d, t_upd, scratch.keys(), num_keys,
                             /*is_upper=*/true, pts);
      uh[d].assign(pts, pts + nu);
      int nl = BuildDimChain(entries, d, t_upd, scratch.keys(), num_keys,
                             /*is_upper=*/false, pts);
      lh[d].assign(pts, pts + nl);
      if (d + 1 < kDims) candidates[d] = SweepCandidates(uh[d], lh[d], delta);
    }
  }

  // Enumerate candidate bridge pairs in dimensions 0..kDims-2; the last
  // dimension responds optimally via the Lemma 4.2 median.
  DimBounds chosen[kDims];
  DimBounds best[kDims];
  double best_objective = std::numeric_limits<double>::infinity();
  bool have_best = false;

  auto evaluate_last = [&]() {
    double values[kDims], slopes[kDims];
    for (int d = 0; d + 1 < kDims; ++d) {
      values[d] = chosen[d].upper.intercept - chosen[d].lower.intercept;
      slopes[d] = chosen[d].upper.slope - chosen[d].lower.slope;
    }
    double m = MedianFromExtents(
        {values, static_cast<size_t>(kDims - 1)},
        {slopes, static_cast<size_t>(kDims - 1)}, delta);
    chosen[kDims - 1] = DimBounds{hull::UpperBridge(uh[kDims - 1], m),
                                  hull::LowerBridge(lh[kDims - 1], m)};
    values[kDims - 1] = chosen[kDims - 1].upper.intercept -
                        chosen[kDims - 1].lower.intercept;
    slopes[kDims - 1] =
        chosen[kDims - 1].upper.slope - chosen[kDims - 1].lower.slope;
    Poly poly = Poly::One();
    for (int d = 0; d < kDims; ++d) poly.MulLinear(values[d], slopes[d]);
    double objective = poly.Integrate(0, delta);
    if (!have_best || objective < best_objective) {
      best_objective = objective;
      for (int d = 0; d < kDims; ++d) best[d] = chosen[d];
      have_best = true;
    }
  };

  // Depth-first enumeration over dims 0..kDims-2 (at most two levels).
  auto recurse = [&](auto&& self, int d) -> void {
    if (d == kDims - 1) {
      evaluate_last();
      return;
    }
    for (const DimBounds& cand : candidates[d]) {
      chosen[d] = cand;
      self(self, d + 1);
    }
  };
  recurse(recurse, 0);
  REXP_CHECK(have_best);
  return AssembleFromLines<kDims>(best, t_upd, max_exp);
}

}  // namespace

double MedianFromExtents(std::span<const double> extent_values,
                         std::span<const double> extent_slopes,
                         double delta) {
  REXP_CHECK(extent_values.size() == extent_slopes.size());
  Poly poly = Poly::One();
  for (size_t j = 0; j < extent_values.size(); ++j) {
    poly.MulLinear(std::max(0.0, extent_values[j]), extent_slopes[j]);
  }
  double num = 0, den = 0;
  double pow_d = delta;  // delta^(i+1)
  for (int i = 0, top = poly.Top(delta); i <= internal_tpbr::kMaxDeg; ++i) {
    if (i > top) break;
    den += poly.c[i] * pow_d / (i + 1);
    pow_d *= delta;
    num += poly.c[i] * pow_d / (i + 2);
  }
  if (!(den > 0)) return delta / 2;
  double m = num / den;
  return std::clamp(m, 0.0, delta);
}

template <int kDims>
Tpbr<kDims> ComputeTpbr(TpbrKind kind, std::span<const Tpbr<kDims>> entries,
                        Time t_upd, double horizon, Rng* rng) {
  REXP_CHECK(!entries.empty());
  switch (kind) {
    case TpbrKind::kConservative:
      return ComputeConservative(entries, t_upd);
    case TpbrKind::kStatic:
      return ComputeStatic(entries, t_upd);
    case TpbrKind::kUpdateMinimum:
      return ComputeUpdateMinimum(entries, t_upd);
    case TpbrKind::kNearOptimal:
      return ComputeNearOptimal(entries, t_upd, horizon, rng);
    case TpbrKind::kOptimal:
      return ComputeOptimal(entries, t_upd, horizon, rng);
  }
  REXP_CHECK(false);
}

template Tpbr<1> ComputeTpbr<1>(TpbrKind, std::span<const Tpbr<1>>, Time,
                                double, Rng*);
template Tpbr<2> ComputeTpbr<2>(TpbrKind, std::span<const Tpbr<2>>, Time,
                                double, Rng*);
template Tpbr<3> ComputeTpbr<3>(TpbrKind, std::span<const Tpbr<3>>, Time,
                                double, Rng*);

}  // namespace rexp
