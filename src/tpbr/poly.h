// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Internal: small fixed-degree polynomials in one variable, used by the
// objective-function integrals and the Lemma 4.2 median computation.
// Degree 3 suffices (a product of at most three linear extents); a spare
// slot guards against off-by-one.
//
// A polynomial tracks its degree so its loops stop there. For finite
// factors every coefficient above the degree is exactly +0, so a term
// past it is a zero as long as the powers it multiplies are finite, and
// adding a zero leaves every sum unchanged (a sum that starts at +0 is
// never -0). The loops run to kMaxDeg only when a factor was not finite
// (the coefficients above the degree may then be NaN) or an argument is
// too large for its powers, and so give the same bits either way.

#ifndef REXP_TPBR_POLY_H_
#define REXP_TPBR_POLY_H_

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rexp::internal_tpbr {

inline constexpr int kMaxDeg = 4;

// Arguments up to this magnitude keep every power a loop forms, up to
// t^(kMaxDeg + 2), finite.
inline constexpr double kFinitePowerLimit = 1e50;

inline bool PowersStayFinite(double t) {
  return std::fabs(t) <= kFinitePowerLimit;
}

struct Poly {
  double c[kMaxDeg + 1] = {};
  int deg = 0;         // Linear factors multiplied in.
  bool finite = true;  // Every factor was finite: c[i] is +0 for i > deg.

  static Poly One() {
    Poly p;
    p.c[0] = 1;
    return p;
  }

  // The last index a loop over the coefficients and the powers of t must
  // visit.
  int Top(double t) const {
    return finite && PowersStayFinite(t) ? deg : kMaxDeg;
  }

  // Multiplies by the linear factor (a + b*tau).
  void MulLinear(double a, double b) {
    REXP_DCHECK(deg < kMaxDeg);  // A further factor would be truncated.
    finite = finite && std::isfinite(a) && std::isfinite(b);
    double next[kMaxDeg + 1] = {};
    // A constant trip count with an early exit, so the loop unrolls.
    for (int i = 0, top = Top(0); i <= kMaxDeg; ++i) {
      if (i > top) break;
      next[i] += c[i] * a;
      if (i + 1 <= kMaxDeg) next[i + 1] += c[i] * b;
    }
    std::copy(next, next + kMaxDeg + 1, c);
    deg = std::min(deg + 1, kMaxDeg);
  }

  // Definite integral over [t0, t1].
  double Integrate(double t0, double t1) const {
    double result = 0;
    double p0 = t0, p1 = t1;  // Running powers t^(i+1).
    for (int i = 0, top = std::max(Top(t0), Top(t1)); i <= kMaxDeg; ++i) {
      if (i > top) break;
      result += c[i] * (p1 - p0) / (i + 1);
      p0 *= t0;
      p1 *= t1;
    }
    return result;
  }
};

}  // namespace rexp::internal_tpbr

#endif  // REXP_TPBR_POLY_H_
