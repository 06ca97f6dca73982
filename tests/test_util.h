// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Shared helpers for the rexp test suite: random generation of canonical
// moving points, TPBR entry sets, and queries; fault seeding into a
// committed on-disk index.

#ifndef REXP_TESTS_TEST_UTIL_H_
#define REXP_TESTS_TEST_UTIL_H_

#include <vector>

#include <gtest/gtest.h>

#include "common/query.h"
#include "common/random.h"
#include "common/types.h"
#include "storage/page_file.h"
#include "tpbr/tpbr.h"
#include "tree/meta_format.h"
#include "tree/tree.h"
#include "verify/verifier.h"

namespace rexp::testing {

inline constexpr double kSpace = 1000.0;  // World extent per dimension.
inline constexpr double kMaxSpeed = 3.0;

// Decodes the committed meta of a `dims`-dimensional index in `file`, lets
// `edit` change the state, and re-encodes it into the same slot. WritePage
// re-seals the frame checksum, so the damage is logical. False when no
// slot holds a walkable tree or the write fails.
template <typename Edit>
bool EditCommittedMeta(PageFile* file, int dims, Edit edit) {
  MetaRead meta = ReadMeta(file, dims);
  if (!meta.walkable()) return false;
  edit(&meta.state);
  Page page(file->page_size());
  EncodeMeta(dims, meta.state, &page);
  return file->WritePage(static_cast<PageId>(meta.slot), page).ok();
}

// verify::CommittedPageAtLevel on a 2-d index, failing the test when the
// committed tree has no page at `level`.
inline PageId FindPageAtLevel(PageFile* file, const TreeConfig& config,
                              int level) {
  const PageId id = verify::CommittedPageAtLevel<2>(file, config, level);
  EXPECT_NE(id, kInvalidPageId) << "no committed page at level " << level;
  return id;
}

// A random canonical moving point observed at `now`, with expiration in
// (now, now + max_life].
template <int kDims>
Tpbr<kDims> RandomPoint(Rng* rng, Time now, double max_life = 120.0) {
  Vec<kDims> pos, vel;
  for (int d = 0; d < kDims; ++d) {
    pos[d] = rng->Uniform(0, kSpace);
    vel[d] = rng->Uniform(-kMaxSpeed, kMaxSpeed);
  }
  Time t_exp = now + rng->Uniform(0.01, max_life);
  return MakeMovingPoint<kDims>(pos, vel, now, t_exp);
}

// A random set of entries for TPBR computation: a mix of points and small
// rectangles, all live at `now`.
template <int kDims>
std::vector<Tpbr<kDims>> RandomEntries(Rng* rng, Time now, int count,
                                       double infinite_fraction = 0.0,
                                       double max_life = 120.0) {
  std::vector<Tpbr<kDims>> entries;
  entries.reserve(count);
  for (int i = 0; i < count; ++i) {
    Tpbr<kDims> e;
    for (int d = 0; d < kDims; ++d) {
      double lo = rng->Uniform(0, kSpace);
      double extent = rng->Bernoulli(0.5) ? 0.0 : rng->Uniform(0, 20.0);
      double vlo = rng->Uniform(-kMaxSpeed, kMaxSpeed);
      double vspread = rng->Bernoulli(0.5) ? 0.0 : rng->Uniform(0, 1.0);
      e.lo[d] = lo;
      e.hi[d] = lo + extent;
      e.vlo[d] = vlo;
      e.vhi[d] = vlo + vspread;
    }
    e.t_exp = rng->Bernoulli(infinite_fraction)
                  ? kNeverExpires
                  : now + rng->Uniform(0.0, max_life);
    entries.push_back(e);
  }
  return entries;
}

// A random query whose time interval starts at or after `now`.
template <int kDims>
Query<kDims> RandomQuery(Rng* rng, Time now, double window = 30.0,
                         double side = 50.0) {
  Vec<kDims> c1, c2;
  for (int d = 0; d < kDims; ++d) {
    c1[d] = rng->Uniform(0, kSpace);
    c2[d] = c1[d] + rng->Uniform(-50.0, 50.0);
  }
  double t1 = now + rng->Uniform(0, window);
  double t2 = t1 + rng->Uniform(0, window);
  switch (rng->UniformInt(3)) {
    case 0:
      return Query<kDims>::Timeslice(Rect<kDims>::Cube(c1, side), t1);
    case 1:
      return Query<kDims>::Window(Rect<kDims>::Cube(c1, side), t1, t2);
    default:
      return Query<kDims>::Moving(Rect<kDims>::Cube(c1, side),
                                  Rect<kDims>::Cube(c2, side), t1, t2);
  }
}

// True if `outer` contains `inner` at every sampled time in [from, to].
template <int kDims>
bool BoundsSampled(const Tpbr<kDims>& outer, const Tpbr<kDims>& inner,
                   Time from, Time to, int samples = 16,
                   double eps = 1e-7) {
  for (int s = 0; s <= samples; ++s) {
    Time t = from + (to - from) * s / samples;
    for (int d = 0; d < kDims; ++d) {
      if (outer.LoAt(d, t) > inner.LoAt(d, t) + eps) return false;
      if (outer.HiAt(d, t) < inner.HiAt(d, t) - eps) return false;
    }
  }
  return true;
}

}  // namespace rexp::testing

#endif  // REXP_TESTS_TEST_UTIL_H_
