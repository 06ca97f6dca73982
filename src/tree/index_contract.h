// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// The index contract the four front-ends share — Tree, ScheduledIndex,
// TieredIndex and PartitionedIndex — so a measurement loop or a test
// battery is written once as a template over the index, with the few
// per-front-end policies (how a position re-report is applied, what
// deferred maintenance runs between operations) as `if constexpr`.

#ifndef REXP_TREE_INDEX_CONTRACT_H_
#define REXP_TREE_INDEX_CONTRACT_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "common/query.h"
#include "common/status.h"
#include "common/types.h"
#include "obs/registry.h"
#include "tpbr/tpbr.h"
#include "verify/verifier.h"

namespace rexp {

// Insert/Delete take the caller's logical clock; Delete reports whether
// the record was the object's live record. Search adds the ids of the
// live objects intersecting the query to `out` (pass it empty).
// TotalIo, PagesUsed and ExpiredLeafFraction are the paper's metrics —
// page I/O, index size, unpurged expired leaf entries — summed over the
// trees the front-end owns (ScheduledIndex's deletion queue is a
// separate cost stream). ExpiredLeafFraction walks every tree through
// its buffer pool, so the walk itself adds to TotalIo; a page it cannot
// read fails it with that page's status. RegisterMetrics
// binds the front-end's telemetry under `prefix`. Verify runs the
// front-end's whole invariant catalog — every tree it owns, plus its
// queue or live tier — and returns every violation as a finding in one
// report; it never aborts.
template <typename Index, int kDims = 2>
concept IndexFrontEnd = requires(Index& index, ObjectId oid,
                                 const Tpbr<kDims>& record, Time now,
                                 const Query<kDims>& query,
                                 std::vector<ObjectId>* out,
                                 obs::MetricsRegistry* registry,
                                 const std::string& prefix) {
  index.Insert(oid, record, now);
  { index.Delete(oid, record, now) } -> std::same_as<bool>;
  index.Search(query, out);
  { index.TotalIo() } -> std::same_as<uint64_t>;
  { index.PagesUsed() } -> std::same_as<uint64_t>;
  { index.ExpiredLeafFraction(now) } -> std::same_as<StatusOr<double>>;
  index.RegisterMetrics(registry, prefix);
  { index.Verify(now) } -> std::same_as<verify::Report>;
};

}  // namespace rexp

#endif  // REXP_TREE_INDEX_CONTRACT_H_
