// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "hull/convex_hull.h"

#include <algorithm>

#include "common/check.h"

namespace rexp::hull {
namespace {

// Cross product of (b - a) x (c - a). Positive for a counter-clockwise
// turn at b.
inline double Cross(const Point2& a, const Point2& b, const Point2& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

inline bool LessXY(const Point2& a, const Point2& b) {
  if (a.x != b.x) return a.x < b.x;
  return a.y < b.y;
}

void SortPoints(Point2* pts, int n) {
  // The tree's what-if bounds build hulls of a handful of points millions
  // of times; insertion sort avoids std::sort overhead there.
  if (n <= 24) {
    for (int i = 1; i < n; ++i) {
      Point2 key = pts[i];
      int j = i - 1;
      while (j >= 0 && LessXY(key, pts[j])) {
        pts[j + 1] = pts[j];
        --j;
      }
      pts[j + 1] = key;
    }
  } else {
    std::sort(pts, pts + n, LessXY);
  }
}

// Builds the upper (keep_upper) or lower chain in place over points in
// ascending x; returns the chain length.
int ChainOfSorted(Point2* pts, int n, bool keep_upper) {
  REXP_CHECK(n >= 1);
  int len = 0;
  for (int i = 0; i < n;) {
    // Of the points sharing an x only the highest (upper chain) or lowest
    // (lower chain) can lie on the chain. Ties go to the last highest and
    // the first lowest: the point an (x, y)-sorted scan ends up keeping.
    // A higher point drops every chain vertex a lower one would, so
    // skipping the others changes nothing.
    Point2 p = pts[i];
    for (++i; i < n && pts[i].x == p.x; ++i) {
      if (keep_upper ? pts[i].y >= p.y : pts[i].y < p.y) p = pts[i];
    }
    while (len >= 2) {
      double turn = Cross(pts[len - 2], pts[len - 1], p);
      bool drop = keep_upper ? (turn >= 0) : (turn <= 0);
      if (!drop) break;
      --len;
    }
    pts[len++] = p;
  }
  return len;
}

Line EdgeLine(const Point2& a, const Point2& b) {
  if (b.x == a.x) {
    // Degenerate vertical edge; cannot happen after deduplication, but
    // guard anyway.
    return Line{a.y, 0};
  }
  double slope = (b.y - a.y) / (b.x - a.x);
  return Line{a.y - slope * a.x, slope};
}

Line BridgeImpl(const Point2* chain, int n, double m) {
  REXP_CHECK(n >= 1);
  if (n == 1) return Line{chain[0].y, 0};
  // Clamp m into the hull's x-range so an edge always exists.
  m = std::max(chain[0].x, std::min(chain[n - 1].x, m));
  // Find the first vertex with x >= m; the bridge is the edge ending at
  // that vertex (if m coincides with a vertex, either neighbor is a valid
  // minimum, per the paper's tie rule).
  int lo = 0, hi = n - 1;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (chain[mid].x < m) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) lo = 1;
  return EdgeLine(chain[lo - 1], chain[lo]);
}

}  // namespace

std::vector<Point2> UpperHull(std::vector<Point2> points) {
  int len = UpperHullInPlace(points.data(), static_cast<int>(points.size()));
  points.resize(len);
  return points;
}

std::vector<Point2> LowerHull(std::vector<Point2> points) {
  int len = LowerHullInPlace(points.data(), static_cast<int>(points.size()));
  points.resize(len);
  return points;
}

int UpperHullInPlace(Point2* pts, int n) {
  SortPoints(pts, n);
  return ChainOfSorted(pts, n, /*keep_upper=*/true);
}

int LowerHullInPlace(Point2* pts, int n) {
  SortPoints(pts, n);
  return ChainOfSorted(pts, n, /*keep_upper=*/false);
}

int UpperChainOfSorted(Point2* pts, int n) {
  return ChainOfSorted(pts, n, /*keep_upper=*/true);
}

int LowerChainOfSorted(Point2* pts, int n) {
  return ChainOfSorted(pts, n, /*keep_upper=*/false);
}

Line UpperBridge(const std::vector<Point2>& upper_hull, double m) {
  return BridgeImpl(upper_hull.data(), static_cast<int>(upper_hull.size()),
                    m);
}

Line LowerBridge(const std::vector<Point2>& lower_hull, double m) {
  return BridgeImpl(lower_hull.data(), static_cast<int>(lower_hull.size()),
                    m);
}

Line UpperBridge(const Point2* chain, int n, double m) {
  return BridgeImpl(chain, n, m);
}

Line LowerBridge(const Point2* chain, int n, double m) {
  return BridgeImpl(chain, n, m);
}

}  // namespace rexp::hull
