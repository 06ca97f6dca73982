// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Offline verification of a closed partitioned index (rexp_fsck
// --manifest): the partition analogue of verify::TreeVerifier. Starting
// from the router manifest, it
//
//   * validates the manifest itself (header, counts, class table) —
//     damage reports as verify::CheckId::kPartitionManifest,
//   * runs the full per-tree invariant catalog (TreeVerifier::VerifyFile)
//     over every partition file, and
//   * cross-checks the partitioning (MergeClassReport, which the live
//     PartitionedIndex::Verify runs too): a live object present in two
//     partitions, a live record faster than its class's recorded speed
//     ceiling (vmax), or any live record in a merged-away class reports
//     as verify::CheckId::kPartitionRouting.
//
// Like the tree verifier, this never opens a Tree (opening would commit
// on close and mutate the files a checker must leave untouched); pages
// are read straight off the closed files.

#ifndef REXP_PARTITION_PARTITION_VERIFY_H_
#define REXP_PARTITION_PARTITION_VERIFY_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "tree/node.h"
#include "tree/tree_config.h"
#include "verify/verifier.h"

namespace rexp {
namespace partition {

// The class each live object was first seen in, across the classes one
// verification has checked so far.
using FirstSeen = std::unordered_map<ObjectId, size_t>;

// Folds class `cls`'s tree report `part` into `report` (as
// verify::MergePartitionReport does) and, when that walk was complete,
// checks the class's live records `live` against the partitioning: an
// object live in two classes (against `first_seen`), a live record in a
// merged-away class (`active` false), or a live record of an active
// class faster than `ceiling` (+infinity: no known ceiling). A class
// whose walk was incomplete gets no class verdict: the records it gave
// are not its record set. Call once per class, in slot order.
template <int kDims>
void MergeClassReport(verify::Report part, size_t cls, bool active,
                      double ceiling, const std::vector<NodeEntry<kDims>>& live,
                      const verify::VerifyOptions& options,
                      FirstSeen* first_seen, verify::Report* report);

// Verifies the partitioned index rooted at `manifest_path`. `config`
// must match the creation configuration of the partition trees; its
// page_size is overridden by the manifest's recorded geometry. Findings
// from partition i are prefixed "p<i>: ".
template <int kDims>
verify::Report VerifyPartitioned(const std::string& manifest_path,
                                 const TreeConfig& config,
                                 const verify::VerifyOptions& options);

// Dimension-dispatching wrapper for tools: reads the manifest's recorded
// dims (stored in *dims_out, 0 if the manifest is unreadable) and runs
// the matching instantiation.
verify::Report VerifyPartitionedAuto(const std::string& manifest_path,
                                     const TreeConfig& config,
                                     const verify::VerifyOptions& options,
                                     int* dims_out);

}  // namespace partition
}  // namespace rexp

#endif  // REXP_PARTITION_PARTITION_VERIFY_H_
