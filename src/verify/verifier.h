// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// Offline/structural invariant verification for persisted R^exp-tree
// indexes — the index analogue of fsck. The verifier walks an index
// either straight off a closed page file (no running Tree required) or
// over the flushed state of a live tree, and checks the full invariant
// catalog the paper implies:
//
//   * dual-slot metadata validity and epoch consistency (Section 4.3 /
//     DESIGN.md durability),
//   * page-frame checksums on every reachable page,
//   * node structure: level tags, child-pointer validity, acyclicity,
//   * fan-out and minimum-occupancy bounds per node kind (R* structure),
//   * per-type TPBR conservativeness: every stored bounding rectangle
//     contains its children's regions at sampled timestamps across their
//     bounded lifetimes (Section 4.1),
//   * expiration-time monotonicity up the tree: a parent entry's decoded
//     expiry never under-estimates the true lifetime of its live content
//     (Section 4.1.1),
//   * canonical-record round-trip at the leaves (the ToFloatExactly
//     contract: records are float-exact, finite, and degenerate),
//   * free-list and page accounting: every committed page is a meta slot,
//     a reachable node, free, or accounted leaked.
//
// Violations are reported as typed findings rather than aborts, so the
// rexp_fsck tool can enumerate all damage in one pass and tests can
// assert on the exact class detected.

#ifndef REXP_VERIFY_VERIFIER_H_
#define REXP_VERIFY_VERIFIER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "storage/page_file.h"
#include "tree/node.h"
#include "tree/tree_config.h"

namespace rexp {

namespace obs {
class JsonWriter;
}  // namespace obs

namespace verify {

// One invariant class per enumerator; tests seed corruption per class and
// assert the matching finding surfaces.
enum class CheckId {
  kMetaSlot,           // Meta slot invalid, inconsistent, or unrecoverable.
  kPageChecksum,       // Page frame failed device-level validation.
  kNodeStructure,      // Bad level tag, child id, cycle, or NaN bound.
  kFanout,             // Node holds more entries than its capacity.
  kOccupancy,          // Underfull nodes beyond the orphan-cap budget.
  kLevelBookkeeping,   // Walked entry counts disagree with metadata.
  kParentContainment,  // Stored TPBR fails to bound a child region.
  kExpiryMonotonic,    // Parent expiry under-estimates live content.
  kCanonicalRecord,    // Leaf record violates the canonical contract.
  kFreeList,           // Free-list entry invalid, duplicate, or reachable.
  kPageAccounting,     // Committed pages unaccounted for (orphans/leaks).
  kDatMapping,         // Direct-access table disagrees with the leaf walk.
  kPartitionManifest,  // Partition manifest missing, malformed, or stale.
  kPartitionRouting,   // Record violates its partition's speed class.
};

const char* CheckIdName(CheckId check);

struct Finding {
  CheckId check;
  PageId page;  // kInvalidPageId when not tied to one page.
  int level;    // Node level, or -1 when not applicable.
  std::string detail;
};

struct VerifyOptions {
  // Verification time: entries expired before `now` are exempt from
  // containment (the paper purges them lazily).
  Time now = 0;
  // Timestamps sampled across each entry's bounded lifetime for the TPBR
  // conservativeness check (interval endpoints always included).
  int horizon_samples = 4;
  // Containment tolerance, matching the outward float rounding of the
  // on-page encoding.
  double eps = 1e-3;
  // Stop recording (but keep counting) findings past this many.
  size_t max_findings = 64;
};

// [[nodiscard]]: a dropped verification report is a verification that
// never happened — every producer returns findings the caller must act on.
struct [[nodiscard]] Report {
  std::vector<Finding> findings;
  size_t findings_suppressed = 0;  // Found beyond max_findings.
  uint64_t pages_walked = 0;
  uint64_t entries_checked = 0;
  uint64_t leaf_records_checked = 0;
  uint64_t live_leaf_entries = 0;
  uint64_t underfull_nodes = 0;
  int damaged_meta_slots = 0;  // Tolerated (torn-commit) slot damage.
  uint64_t meta_epoch = 0;
  int height = 0;
  // False when a structural finding cut the walk short, in which case the
  // accounting checks are skipped (they would double-report).
  bool walk_complete = true;

  bool ok() const { return findings.empty() && findings_suppressed == 0; }
  size_t TotalFindings() const {
    return findings.size() + findings_suppressed;
  }
  std::string ToString() const;
};

// Appends the shared finding-report fields to an open JSON object in `w`:
// "ok" and a "findings" array of {check, page?, level?, detail} objects,
// plus "findings_suppressed". This is rexp_fsck's finding schema, the
// one CI scripts consume.
void WriteReportJson(const Report& report, obs::JsonWriter* w);

// A live tree's direct-access-table entry, snapshotted for the
// DAT-vs-walk cross-check (tree/dat.h documents the invariants).
struct DatSnapshotEntry {
  ObjectId oid = 0;
  PageId leaf = kInvalidPageId;  // Known only while count == 1.
  uint32_t count = 0;            // Physical leaf copies of this oid.
};

// A tree state to verify: either parsed from a committed meta slot
// (MakeFileView) or donated by a live Tree (Tree::Verify).
struct TreeView {
  PageId root = kInvalidPageId;
  int height = 0;
  std::vector<uint64_t> level_counts;  // Leaf first.
  uint64_t underfull_remnants = 0;
  double ui = 60.0;  // Horizon estimate (bounds never-expiring checks).
  uint64_t meta_epoch = 0;
  // One past the largest page id the state may reference.
  uint64_t page_limit = 0;
  // Node pages the walk must account for exactly (committed capacity
  // minus meta slots, free pages, and leaked pages).
  uint64_t expected_reachable = 0;
  // Persisted free list (offline verification only).
  std::vector<PageId> free_list;
  bool check_free_list = false;
  // Direct-access-table snapshot (live verification only — the DAT is an
  // in-memory structure, so offline VerifyFile leaves check_dat false).
  std::vector<DatSnapshotEntry> dat;
  bool check_dat = false;
};

template <int kDims>
class TreeVerifier {
 public:
  // Verifies a closed index straight off `file` (typically a DiskPageFile
  // opened on a persisted index): parses the dual-slot metadata itself and
  // walks the committed state. `config` must match the index's creation
  // configuration. Never aborts; all damage lands in the report.
  static Report VerifyFile(PageFile* file, const TreeConfig& config,
                           const VerifyOptions& options);

  // Verifies the state described by `view` (pages read through
  // `file->ReadPage`, so the caller must have flushed any buffered
  // changes first). Used by VerifyFile after parsing the metadata and by
  // Tree::Verify with the live in-memory state.
  static Report VerifyView(PageFile* file, const TreeConfig& config,
                           const TreeView& view,
                           const VerifyOptions& options);

 private:
  struct WalkState;

  static Time WalkSubtree(PageFile* file, const TreeConfig& config,
                          const NodeCodec<kDims>& codec, const TreeView& view,
                          const VerifyOptions& options, PageId id, int level,
                          const Tpbr<kDims>* bound, WalkState* state);
};

}  // namespace verify
}  // namespace rexp

#endif  // REXP_VERIFY_VERIFIER_H_
