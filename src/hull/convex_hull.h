// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Planar convex-hull machinery used to compute optimal and near-optimal
// time-parameterized bounding rectangles (paper Section 4.1.3):
//
//  * monotone-chain (Graham-scan family) upper and lower hulls of the
//    trajectory endpoints in the (t, x) plane, and
//  * "bridge" finding: the hull edge intersecting a vertical median line
//    t = m. By Lemma 4.1 the lines containing the bridges of the upper and
//    lower hulls are the bounds of the minimum-area bounding trapezoid.
//
// The paper notes that the linear-time Kirkpatrick–Seidel bridge algorithm
// exists but uses a Graham-scan-based implementation for robustness; we do
// the same (hull in O(n log n), bridge lookup by binary search).

#ifndef REXP_HULL_CONVEX_HULL_H_
#define REXP_HULL_CONVEX_HULL_H_

#include <vector>

namespace rexp::hull {

struct Point2 {
  double x = 0;  // Time coordinate.
  double y = 0;  // Position coordinate.
};

// A line y = intercept + slope * x.
struct Line {
  double intercept = 0;
  double slope = 0;

  double YAt(double x) const { return intercept + slope * x; }
};

// Upper hull: the concave chain from the leftmost to the rightmost point,
// in increasing x, such that every input point lies on or below it.
// The input need not be sorted. Requires at least one point.
std::vector<Point2> UpperHull(std::vector<Point2> points);

// Lower hull: the convex chain such that every input point lies on or
// above it.
std::vector<Point2> LowerHull(std::vector<Point2> points);

// Allocation-free variants for the hot paths (the tree computes millions
// of small what-if bounds): sorts pts[0..n) in place and overwrites the
// front of the buffer with the chain; returns the chain length.
int UpperHullInPlace(Point2* pts, int n);
int LowerHullInPlace(Point2* pts, int n);

// The same chains over pts[0..n) already in ascending x (points sharing
// an x may come in any order): no sort, otherwise identical. The
// InPlace variants are a sort followed by these.
int UpperChainOfSorted(Point2* pts, int n);
int LowerChainOfSorted(Point2* pts, int n);

// Bridge over a chain given as a raw array (see UpperBridge below).
Line UpperBridge(const Point2* chain, int n, double m);
Line LowerBridge(const Point2* chain, int n, double m);

// Returns the supporting line through the upper-hull edge whose x-span
// contains `m` (the "bridge" across the median line t = m). For a
// single-vertex hull the line is horizontal through that vertex. If m lies
// outside the hull's x-range it is clamped, selecting the first or last
// edge (the paper's tie rule: either adjacent edge yields a minimum
// trapezoid of the same area).
Line UpperBridge(const std::vector<Point2>& upper_hull, double m);

// Same for the lower hull.
Line LowerBridge(const std::vector<Point2>& lower_hull, double m);

}  // namespace rexp::hull

#endif  // REXP_HULL_CONVEX_HULL_H_
