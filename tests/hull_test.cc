// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the convex-hull and bridge-finding machinery underlying the
// optimal/near-optimal TPBR computations.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "hull/convex_hull.h"

namespace rexp::hull {
namespace {

std::vector<Point2> RandomPoints(Rng* rng, int n, double x_max = 100,
                                 double y_max = 100) {
  std::vector<Point2> pts;
  pts.reserve(n);
  for (int i = 0; i < n; ++i) {
    pts.push_back({rng->Uniform(0, x_max), rng->Uniform(-y_max, y_max)});
  }
  return pts;
}

TEST(ConvexHullTest, SinglePoint) {
  std::vector<Point2> hull = UpperHull({{1, 2}});
  ASSERT_EQ(hull.size(), 1u);
  EXPECT_EQ(hull[0].x, 1);
  EXPECT_EQ(hull[0].y, 2);
}

TEST(ConvexHullTest, DuplicateXKeepsExtremeY) {
  std::vector<Point2> upper = UpperHull({{0, 1}, {0, 5}, {0, 3}});
  ASSERT_EQ(upper.size(), 1u);
  EXPECT_EQ(upper[0].y, 5);
  std::vector<Point2> lower = LowerHull({{0, 1}, {0, 5}, {0, 3}});
  ASSERT_EQ(lower.size(), 1u);
  EXPECT_EQ(lower[0].y, 1);
}

TEST(ConvexHullTest, CollinearPointsCollapseToEndpoints) {
  std::vector<Point2> hull = UpperHull({{0, 0}, {1, 1}, {2, 2}, {3, 3}});
  ASSERT_EQ(hull.size(), 2u);
  EXPECT_EQ(hull.front().x, 0);
  EXPECT_EQ(hull.back().x, 3);
}

TEST(ConvexHullTest, KnownSquare) {
  std::vector<Point2> pts = {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.5, 0.5}};
  std::vector<Point2> upper = UpperHull(pts);
  ASSERT_EQ(upper.size(), 2u);
  EXPECT_EQ(upper[0].y, 1);
  EXPECT_EQ(upper[1].y, 1);
  std::vector<Point2> lower = LowerHull(pts);
  ASSERT_EQ(lower.size(), 2u);
  EXPECT_EQ(lower[0].y, 0);
  EXPECT_EQ(lower[1].y, 0);
}

// Property: every input point lies on or below the upper hull (on or above
// the lower hull), and hull vertices are a subset of the input.
TEST(ConvexHullTest, PropertyDominatesAllPoints) {
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    int n = 1 + static_cast<int>(rng.UniformInt(40));
    std::vector<Point2> pts = RandomPoints(&rng, n);
    std::vector<Point2> upper = UpperHull(pts);
    std::vector<Point2> lower = LowerHull(pts);
    ASSERT_FALSE(upper.empty());
    ASSERT_FALSE(lower.empty());
    // Hull chains are strictly increasing in x.
    for (size_t i = 1; i < upper.size(); ++i) {
      ASSERT_LT(upper[i - 1].x, upper[i].x);
    }
    // Piecewise-linear interpolation of the chain dominates every point.
    auto eval = [](const std::vector<Point2>& chain, double x) {
      if (chain.size() == 1) return chain[0].y;
      auto it = std::lower_bound(
          chain.begin(), chain.end(), x,
          [](const Point2& p, double v) { return p.x < v; });
      size_t hi = static_cast<size_t>(it - chain.begin());
      if (hi == 0) hi = 1;
      if (hi >= chain.size()) hi = chain.size() - 1;
      const Point2& a = chain[hi - 1];
      const Point2& b = chain[hi];
      double f = (x - a.x) / (b.x - a.x);
      return a.y + (b.y - a.y) * f;
    };
    for (const Point2& p : pts) {
      ASSERT_GE(eval(upper, p.x) + 1e-9, p.y);
      ASSERT_LE(eval(lower, p.x) - 1e-9, p.y);
    }
  }
}

// The chains of x-sorted input equal the sorting builders' exactly when
// many points share an x (as the hull points of entries expiring at the
// same time do), in whatever order those points arrive.
TEST(ConvexHullTest, ChainOfSortedMatchesSortingHullOnEqualX) {
  Rng rng(17);
  for (int iter = 0; iter < 500; ++iter) {
    int n = 1 + static_cast<int>(rng.UniformInt(60));
    std::vector<Point2> pts;
    for (int i = 0; i < n; ++i) {
      double x = static_cast<double>(rng.UniformInt(6));
      double y = rng.Bernoulli(0.5) ? static_cast<double>(rng.UniformInt(9))
                                    : rng.Uniform(-10, 10);
      pts.push_back({x, y});
    }
    std::vector<Point2> by_x = pts;
    std::stable_sort(
        by_x.begin(), by_x.end(),
        [](const Point2& a, const Point2& b) { return a.x < b.x; });
    for (bool upper : {true, false}) {
      std::vector<Point2> want = pts;
      std::vector<Point2> got = by_x;
      int want_len = upper ? UpperHullInPlace(want.data(), n)
                           : LowerHullInPlace(want.data(), n);
      int got_len = upper ? UpperChainOfSorted(got.data(), n)
                          : LowerChainOfSorted(got.data(), n);
      ASSERT_EQ(got_len, want_len) << "iter " << iter;
      for (int i = 0; i < got_len; ++i) {
        ASSERT_EQ(got[i].x, want[i].x) << "iter " << iter << " vertex " << i;
        ASSERT_EQ(got[i].y, want[i].y) << "iter " << iter << " vertex " << i;
      }
    }
  }
}

// Property: a bridge line supports the hull — it passes above (below)
// every input point.
TEST(BridgeTest, PropertySupportingLine) {
  Rng rng(11);
  for (int iter = 0; iter < 300; ++iter) {
    int n = 1 + static_cast<int>(rng.UniformInt(30));
    std::vector<Point2> pts = RandomPoints(&rng, n);
    std::vector<Point2> upper = UpperHull(pts);
    std::vector<Point2> lower = LowerHull(pts);
    double m = rng.Uniform(-10, 110);
    Line u = UpperBridge(upper, m);
    Line l = LowerBridge(lower, m);
    for (const Point2& p : pts) {
      ASSERT_GE(u.YAt(p.x) + 1e-7, p.y) << "upper bridge cuts a point";
      ASSERT_LE(l.YAt(p.x) - 1e-7, p.y) << "lower bridge cuts a point";
    }
  }
}

// Property (Lemma 4.1): among all supporting lines through upper-hull
// edges, the bridge at median m minimizes the area of the trapezoid over
// [0, 2m] — checked by enumerating all edges.
TEST(BridgeTest, PropertyBridgeMinimizesTrapezoidArea) {
  Rng rng(13);
  for (int iter = 0; iter < 200; ++iter) {
    int n = 2 + static_cast<int>(rng.UniformInt(30));
    std::vector<Point2> pts = RandomPoints(&rng, n);
    // Ensure some spread in x.
    pts.push_back({0, 0});
    pts.push_back({100, 0});
    std::vector<Point2> upper = UpperHull(pts);
    if (upper.size() < 2) continue;
    double m = rng.Uniform(0, 100);
    Line bridge = UpperBridge(upper, m);
    // Area over [0, 2m] of the region under a line a + s*x equals
    // 2m * (a + s*m): minimizing it is minimizing the value at x = m.
    double bridge_value = bridge.YAt(m);
    for (size_t i = 1; i < upper.size(); ++i) {
      double slope = (upper[i].y - upper[i - 1].y) /
                     (upper[i].x - upper[i - 1].x);
      double intercept = upper[i - 1].y - slope * upper[i - 1].x;
      Line edge{intercept, slope};
      ASSERT_GE(edge.YAt(m) + 1e-7, bridge_value);
    }
  }
}

}  // namespace
}  // namespace rexp::hull
