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
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "storage/page_file.h"
#include "tree/meta_format.h"
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
  kLiveTier,           // TieredIndex's in-memory live tier is inconsistent.
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
  // False when the tree was not walked to the end: a structural finding
  // cut the walk short (the accounting checks are then skipped, as they
  // would double-report), or the committed state was refused before any
  // walk began.
  bool walk_complete = true;

  bool ok() const { return findings.empty() && findings_suppressed == 0; }
  size_t TotalFindings() const {
    return findings.size() + findings_suppressed;
  }
  std::string ToString() const;
};

// Records a finding in `report`, or counts it as suppressed past
// options.max_findings.
void AddFinding(Report* report, const VerifyOptions& options, CheckId check,
                PageId page, int level, std::string detail);

// Why leaf record `e` breaks the canonical-record contract (the
// ToFloatExactly contract: a degenerate point, finite, float-exact, with
// a valid expiration), one message per violation; empty when it holds.
// Records failing it cannot come from MakeMovingPoint.
template <int kDims>
std::vector<std::string> CanonicalRecordFaults(const NodeEntry<kDims>& e);

// Where `region` first escapes `bound` under the sampled parent-
// containment rule (paper Section 4.1): `bound` must contain `region` at
// options.horizon_samples + 2 evenly spaced times from options.now to
// the end of its live lifetime `true_expiry` (`never_expires_horizon`
// when that is infinite or entries do not expire), within options.eps.
struct Escape {
  int dim = -1;  // -1: contained at every sample.
  Time t = 0;
  bool escaped() const { return dim >= 0; }
};
template <int kDims>
Escape FindEscape(const Tpbr<kDims>& bound, const Tpbr<kDims>& region,
                  Time true_expiry, bool expire_entries,
                  Time never_expires_horizon, const VerifyOptions& options);

// Folds a component's report `part` into `into`: sums the counters and
// appends the findings with "<label>: " prefixed to each detail,
// recording at most options.max_findings and counting the rest as
// suppressed. Labels name the component: "p<i>" for partition i, "queue"
// for a scheduled index's deletion queue.
void MergeReport(Report part, const std::string& label,
                 const VerifyOptions& options, Report* into);

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
  // Called with every live leaf record a walk decodes (live: not expired
  // at VerifyOptions::now, or the configuration never expires entries).
  using LiveRecordVisitor = std::function<void(const NodeEntry<kDims>&)>;

  // Verifies a closed index straight off `file` (typically a DiskPageFile
  // opened on a persisted index): reads the dual-slot metadata and walks
  // the committed state. `config` must match the index's creation
  // configuration. Never aborts; all damage lands in the report.
  static Report VerifyFile(PageFile* file, const TreeConfig& config,
                           const VerifyOptions& options);

  // VerifyFile over a meta read the caller already holds (ReadMeta(file,
  // kDims)), for callers that go on to use the committed state. `visit`
  // sees the live leaf records of the walk; they are the whole committed
  // record set only when the report says walk_complete.
  static Report VerifyCommitted(PageFile* file, const TreeConfig& config,
                                const MetaRead& meta,
                                const VerifyOptions& options,
                                const LiveRecordVisitor& visit = {});

  // Verifies the state described by `view` (pages read through
  // `file->ReadPage`, so the caller must have flushed any buffered
  // changes first). Used by VerifyFile after parsing the metadata and by
  // Tree::Verify with the live in-memory state.
  static Report VerifyView(PageFile* file, const TreeConfig& config,
                           const TreeView& view, const VerifyOptions& options,
                           const LiveRecordVisitor& visit = {});

 private:
  struct WalkState;

  static Time WalkSubtree(PageFile* file, const TreeConfig& config,
                          const NodeCodec<kDims>& codec, const TreeView& view,
                          const VerifyOptions& options, PageId id, int level,
                          const Tpbr<kDims>* bound, WalkState* state);
};

// The page reached from the committed root by following first-child
// pointers down to `level` (0 = leaf): a fixed target for seeding a fault
// into a persisted index. kInvalidPageId when no meta slot describes a
// walkable tree, the tree is shallower than `level`, or a page on the
// way is unreadable.
template <int kDims>
PageId CommittedPageAtLevel(PageFile* file, const TreeConfig& config,
                            int level);

// Seeds a logical fault into a persisted index: reads the page
// CommittedPageAtLevel(level) names, lets `edit` change its decoded node
// and writes it back (WritePage re-seals the frame checksum, so the
// damage does not show as rot). False when there is no such page, it
// fails the checked read, it holds no entry, or the write fails.
template <int kDims>
bool EditCommittedNode(PageFile* file, const TreeConfig& config, int level,
                       const std::function<void(Node<kDims>*)>& edit);

}  // namespace verify
}  // namespace rexp

#endif  // REXP_VERIFY_VERIFIER_H_
