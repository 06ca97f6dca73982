// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Tests for the objective-function time-integrals: closed forms are
// validated against numeric (Riemann) integration on random rectangles.

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "tpbr/integrals.h"
#include "tpbr/poly.h"

namespace rexp {
namespace {

using ::rexp::testing::RandomEntries;

template <int kDims>
double NumericArea(const Tpbr<kDims>& b, Time t_eval, double T, int steps) {
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    double tau = (i + 0.5) * T / steps;
    double v = 1;
    for (int d = 0; d < kDims; ++d) {
      v *= std::max(0.0, b.ExtentAt(d, t_eval + tau));
    }
    sum += v;
  }
  return sum * T / steps;
}

template <int kDims>
double NumericMargin(const Tpbr<kDims>& b, Time t_eval, double T, int steps) {
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    double tau = (i + 0.5) * T / steps;
    for (int d = 0; d < kDims; ++d) {
      sum += std::max(0.0, b.ExtentAt(d, t_eval + tau));
    }
  }
  return sum * T / steps;
}

template <int kDims>
double NumericOverlap(const Tpbr<kDims>& a, const Tpbr<kDims>& b,
                      Time t_eval, double T, int steps) {
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    double t = t_eval + (i + 0.5) * T / steps;
    double v = 1;
    for (int d = 0; d < kDims; ++d) {
      double lo = std::max(a.LoAt(d, t), b.LoAt(d, t));
      double hi = std::min(a.HiAt(d, t), b.HiAt(d, t));
      v *= std::max(0.0, hi - lo);
    }
    sum += v;
  }
  return sum * T / steps;
}

template <int kDims>
double NumericCenterDistSq(const Tpbr<kDims>& a, const Tpbr<kDims>& b,
                           Time t_eval, double T, int steps) {
  double sum = 0;
  for (int i = 0; i < steps; ++i) {
    double t = t_eval + (i + 0.5) * T / steps;
    double v = 0;
    for (int d = 0; d < kDims; ++d) {
      double ca = (a.LoAt(d, t) + a.HiAt(d, t)) / 2;
      double cb = (b.LoAt(d, t) + b.HiAt(d, t)) / 2;
      v += (ca - cb) * (ca - cb);
    }
    sum += v;
  }
  return sum * T / steps;
}

template <int kDims>
void RunAgainstNumeric(uint64_t seed) {
  Rng rng(seed);
  for (int iter = 0; iter < 150; ++iter) {
    Time now = rng.Uniform(0, 50);
    auto entries = RandomEntries<kDims>(&rng, now, 2);
    Tpbr<kDims> a = entries[0];
    Tpbr<kDims> b = entries[1];
    // Nudge the rectangles to overlap often.
    for (int d = 0; d < kDims; ++d) {
      b.lo[d] = a.lo[d] + rng.Uniform(-15, 15);
      b.hi[d] = b.lo[d] + rng.Uniform(0, 25);
    }
    double T = rng.Uniform(0.1, 80);
    const int steps = 40000;
    double rel = 5e-3;

    double area = AreaIntegral(a, now, T);
    double area_num = NumericArea(a, now, T, steps);
    ASSERT_NEAR(area, area_num, rel * std::max(1.0, area_num))
        << "area, iter " << iter;

    double margin = MarginIntegral(a, now, T);
    double margin_num = NumericMargin(a, now, T, steps);
    ASSERT_NEAR(margin, margin_num, rel * std::max(1.0, margin_num))
        << "margin, iter " << iter;

    double overlap = OverlapIntegral(a, b, now, T);
    double overlap_num = NumericOverlap(a, b, now, T, steps);
    ASSERT_NEAR(overlap, overlap_num, rel * std::max(1.0, overlap_num))
        << "overlap, iter " << iter;

    double dist = CenterDistSqIntegral(a, b, now, T);
    double dist_num = NumericCenterDistSq(a, b, now, T, steps);
    ASSERT_NEAR(dist, dist_num, rel * std::max(1.0, dist_num))
        << "distance, iter " << iter;
  }
}

TEST(IntegralsVsNumeric, OneDimensional) { RunAgainstNumeric<1>(21); }
TEST(IntegralsVsNumeric, TwoDimensional) { RunAgainstNumeric<2>(22); }
TEST(IntegralsVsNumeric, ThreeDimensional) { RunAgainstNumeric<3>(23); }

TEST(Integrals, ZeroHorizonIsZero) {
  Tpbr<2> b;
  b.hi[0] = b.hi[1] = 10;
  EXPECT_EQ(AreaIntegral(b, 0.0, 0.0), 0.0);
  EXPECT_EQ(MarginIntegral(b, 0.0, 0.0), 0.0);
  EXPECT_EQ(OverlapIntegral(b, b, 0.0, 0.0), 0.0);
  EXPECT_EQ(CenterDistSqIntegral(b, b, 0.0, 0.0), 0.0);
}

TEST(Integrals, StaticRectangleHasClosedFormArea) {
  Tpbr<2> b;
  b.hi[0] = 4;  // 4 x 5 static rectangle.
  b.hi[1] = 5;
  EXPECT_DOUBLE_EQ(AreaIntegral(b, 0.0, 10.0), 4 * 5 * 10.0);
  EXPECT_DOUBLE_EQ(MarginIntegral(b, 0.0, 10.0), (4 + 5) * 10.0);
  EXPECT_DOUBLE_EQ(OverlapIntegral(b, b, 0.0, 10.0), 4 * 5 * 10.0);
}

TEST(Integrals, ShrinkingRectangleStopsContributingAfterCollapse) {
  Tpbr<1> b;
  b.lo[0] = 0;
  b.hi[0] = 10;
  b.vlo[0] = 1;
  b.vhi[0] = 0;  // Extent 10 - tau; collapses at tau = 10.
  // Integral of (10 - tau) over [0, 10] = 50; nothing after.
  EXPECT_DOUBLE_EQ(AreaIntegral(b, 0.0, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(MarginIntegral(b, 0.0, 100.0), 50.0);
}

TEST(Integrals, DisjointDivergingRectanglesHaveZeroOverlap) {
  Tpbr<1> a, b;
  a.lo[0] = 0;
  a.hi[0] = 1;
  a.vlo[0] = a.vhi[0] = -1;
  b.lo[0] = 5;
  b.hi[0] = 6;
  b.vlo[0] = b.vhi[0] = 1;
  EXPECT_EQ(OverlapIntegral(a, b, 0.0, 50.0), 0.0);
}

TEST(Integrals, ConvergingRectanglesOverlapLater) {
  // a = [0,1] moving right at 1 passes through the static b = [10,11]:
  // overlap ramps 0..1 over tau in [9,10], then back to 0 over [10,11].
  Tpbr<1> a, b;
  a.lo[0] = 0;
  a.hi[0] = 1;
  a.vlo[0] = a.vhi[0] = 1;
  b.lo[0] = 10;
  b.hi[0] = 11;
  EXPECT_NEAR(OverlapIntegral(a, b, 0.0, 12.0), 1.0, 1e-9);
}

using internal_tpbr::kMaxDeg;
using internal_tpbr::Poly;

// A product of at most three linear factors is a cubic, which Simpson's
// rule integrates exactly.
TEST(Poly, ProductsUpToDegreeThreeIntegrateToClosedForm) {
  Rng rng(24);
  for (int iter = 0; iter < 200; ++iter) {
    int k = static_cast<int>(rng.UniformInt(4));
    double a[3], b[3];
    Poly poly = Poly::One();
    for (int j = 0; j < k; ++j) {
      a[j] = rng.Uniform(-5, 5);
      b[j] = rng.Uniform(-2, 2);
      poly.MulLinear(a[j], b[j]);
    }
    ASSERT_EQ(poly.deg, k);
    for (int i = k + 1; i <= kMaxDeg; ++i) {
      ASSERT_EQ(poly.c[i], 0.0);
      ASSERT_FALSE(std::signbit(poly.c[i]));  // +0: adds nothing.
    }
    auto f = [&](double t) {
      double v = 1;
      for (int j = 0; j < k; ++j) v *= a[j] + b[j] * t;
      return v;
    };
    double t0 = rng.Uniform(-10, 10), t1 = rng.Uniform(-10, 10);
    double simpson = (t1 - t0) / 6 * (f(t0) + 4 * f((t0 + t1) / 2) + f(t1));
    EXPECT_NEAR(poly.Integrate(t0, t1), simpson,
                1e-9 * (1 + std::abs(simpson)))
        << "k=" << k;
  }
}

TEST(Poly, NonFiniteFactorKeepsEveryCoefficient) {
  Poly poly = Poly::One();
  poly.MulLinear(1, 2);
  poly.MulLinear(std::numeric_limits<double>::infinity(), 1);
  EXPECT_FALSE(poly.finite);
  EXPECT_TRUE(std::isnan(poly.c[kMaxDeg]));  // inf * +0 reaches the top.
  EXPECT_TRUE(std::isnan(poly.Integrate(0, 1)));
}

// MulLinear holds kMaxDeg factors; a further one would silently drop its
// top coefficient, so debug builds stop it.
TEST(PolyDeathTest, FactorBeyondMaxDegreeAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "REXP_DCHECK is compiled out";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Poly poly = Poly::One();
  for (int j = 0; j < kMaxDeg; ++j) poly.MulLinear(1, 1);
  EXPECT_DEATH(poly.MulLinear(1, 1), "deg < kMaxDeg");
#endif
}

}  // namespace
}  // namespace rexp
