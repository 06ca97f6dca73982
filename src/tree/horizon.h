// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Online estimation of the average update interval UI and the derived time
// horizons (paper Section 4.2.3). The tree tracks the number of live leaf
// entries N; every `batch` insertions (batch = node capacity B) a timer
// measures the duration dt of the last batch, giving UI = (dt / B) * N.
// The querying window is W = alpha * UI, the insertion-decision horizon is
// H = UI + W, and the TPBR-computation horizon at an internal level uses
// the level-scaled recomputation interval UI_l = UI * N_l / N_0.

#ifndef REXP_TREE_HORIZON_H_
#define REXP_TREE_HORIZON_H_

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "common/types.h"

namespace rexp {

class HorizonEstimator {
 public:
  HorizonEstimator(double initial_ui, double alpha, uint32_t batch)
      : ui_(initial_ui), alpha_(alpha), batch_(std::max<uint32_t>(batch, 1)) {
    REXP_CHECK(initial_ui > 0);
  }

  // Called once per leaf insertion with the operation time and the current
  // number of leaf entries. Returns true when this insertion completed a
  // batch and the UI estimate was retuned (the telemetry layer traces the
  // new estimate).
  bool RecordInsertion(Time now, uint64_t live_leaf_entries) {
    if (!timer_started_) {
      timer_start_ = now;
      timer_started_ = true;
      inserts_in_batch_ = 0;
    }
    if (++inserts_in_batch_ >= batch_) {
      bool retuned = false;
      double dt = now - timer_start_;
      if (dt > 0 && live_leaf_entries > 0) {
        ui_ = dt / static_cast<double>(batch_) *
              static_cast<double>(live_leaf_entries);
        retuned = true;
      }
      timer_start_ = now;
      inserts_in_batch_ = 0;
      return retuned;
    }
    return false;
  }

  double ui() const { return ui_; }
  double w() const { return alpha_ * ui_; }

  // Restores a previously persisted estimate (index re-open).
  void RestoreUi(double ui) {
    REXP_CHECK(ui > 0);
    ui_ = ui;
  }

  // Horizon for insertion decisions: H = UI + W.
  double DecisionHorizon() const { return ui_ + w(); }

  // Horizon for computing the TPBR of a node stored at `parent_level`
  // (>= 1): the rectangle is recomputed on average every
  // UI_l = UI * N_l / N_0 time units, and queries look W further ahead.
  // `level_entries` is the entry count at the parent level, `leaf_entries`
  // at the leaf level.
  double TpbrHorizon(uint64_t level_entries, uint64_t leaf_entries) const {
    double ratio = 1.0;
    if (leaf_entries > 0) {
      ratio = static_cast<double>(level_entries) /
              static_cast<double>(leaf_entries);
      ratio = std::clamp(ratio, 0.0, 1.0);
    }
    return ui_ * ratio + w();
  }

 private:
  double ui_;
  const double alpha_;
  const uint32_t batch_;
  Time timer_start_ = 0;
  bool timer_started_ = false;
  uint32_t inserts_in_batch_ = 0;
};

}  // namespace rexp

#endif  // REXP_TREE_HORIZON_H_
