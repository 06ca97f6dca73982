// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.
//
// rexp_fsck: offline integrity checker *and repairer* for persisted
// R^exp-tree indexes. Opens a closed index file (no running tree
// required), reads the dual-slot metadata (tree/meta_format.h), walks
// every reachable page, and runs the full invariant catalog from
// verify/verifier.h — page checksums, node structure, fan-out/occupancy,
// TPBR conservativeness at sampled timestamps, expiration monotonicity,
// canonical leaf records, free-list and page accounting. All damage is
// enumerated in one pass as typed findings; nothing aborts.
//
//   $ ./rexp_fsck <index-file> [--now T] [--page-size N] [--dims D]
//                 [--config rexp|tpr] [--stored-expiry] [--samples N]
//                 [--max-findings N] [--repair] [--salvage] [--dry-run]
//                 [--quarantine PATH] [--fill F] [--json] [--quiet]
//   $ ./rexp_fsck --manifest <manifest-file> [check-only flags]
//
// The second form checks a velocity-partitioned index (src/partition/):
// the manifest is validated, every partition file gets the full per-tree
// catalog, and the class discipline is cross-checked (no live object in
// two partitions, none faster than its class ceiling, merged-away
// classes empty). Dims and page size come from the manifest; --repair
// and --salvage are check-time-only rejections in this mode.
//
// Modes (verify/repair.h documents the escalation order):
//   (none)      check only.
//   --repair    in-place fix of a structurally walkable tree; refuses
//               when fixing would guess at data.
//   --salvage   last-resort rebuild: scan every page for valid leaves,
//               quarantine unreadable pages into a sidecar file
//               (default <index-file>.quarantine, override with
//               --quarantine), bulk-load the survivors into a fresh
//               file, and atomically rename it over the original.
//   --repair --salvage   try repair first, escalate to salvage if it
//               refuses.
//   --dry-run   plan and report either mode without writing a byte.
//
// Exit status: 0 when the index is sound (nothing needed fixing), 1 when
// findings were reported in check-only or dry-run mode (or the file
// cannot be opened), 2 on usage errors, 3 when the index was repaired or
// salvaged and now verifies clean, 4 when it is damaged beyond what the
// requested mode can fix.
//
// The configuration flags must match the ones the index was created with
// (defaults: the standard R^exp-tree configuration, like inspect_index).
// Dims are the exception: they are read from the newest valid meta slot.
// An explicit --dims that disagrees with them is a usage error (exit 2,
// nothing written); --dims (default 2) decides only when no slot is
// readable.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "partition/partition_verify.h"
#include "storage/page_file.h"
#include "tree/meta_format.h"
#include "tree/tree_config.h"
#include "verify/repair.h"
#include "verify/verifier.h"

using namespace rexp;

namespace {

// Exit codes (documented in the header comment above).
constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitFixed = 3;
constexpr int kExitUnsalvageable = 4;

constexpr uint32_t kQuarantineMagic = 0x52515852;  // "RXQR".

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <index-file> [--now T] [--page-size N] [--dims D] "
               "[--config rexp|tpr] [--stored-expiry] [--samples N] "
               "[--max-findings N] [--repair] [--salvage] [--dry-run] "
               "[--quarantine PATH] [--fill F] [--json] [--quiet]\n"
               "       %s --manifest <manifest-file> [check-only flags]\n",
               argv0, argv0);
  return kExitUsage;
}

struct FsckOptions {
  std::string path;
  verify::VerifyOptions verify;
  TreeConfig config = TreeConfig::Rexp();
  int dims = 0;  // 0: unset; the index's recorded dims decide.
  bool manifest = false;  // `path` names a partition manifest instead.
  bool repair = false;
  bool salvage = false;
  bool dry_run = false;
  double fill = 0.7;
  std::string quarantine_path;  // Defaults to path + ".quarantine".
  bool json = false;
  bool quiet = false;
};

// Serializes quarantined pages into the sidecar file. Per-record format
// (all integers little-endian u32): magic "RXQR" | page id | frame size |
// reason length | reason bytes | raw frame bytes. DESIGN.md §11.
bool WriteQuarantineFile(const std::string& path,
                         const std::vector<verify::QuarantinedPage>& pages) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write quarantine file %s\n", path.c_str());
    return false;
  }
  bool ok = true;
  for (const verify::QuarantinedPage& q : pages) {
    const uint32_t header[4] = {
        kQuarantineMagic, q.page, static_cast<uint32_t>(q.frame.size()),
        static_cast<uint32_t>(q.reason.size())};
    ok = ok && std::fwrite(header, sizeof(header), 1, f) == 1;
    ok = ok && (q.reason.empty() ||
                std::fwrite(q.reason.data(), q.reason.size(), 1, f) == 1);
    ok = ok && (q.frame.empty() ||
                std::fwrite(q.frame.data(), q.frame.size(), 1, f) == 1);
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
  return ok;
}

void PrintRepairReport(const verify::RepairReport& report, bool dry_run) {
  std::printf("%s:\n", dry_run ? "repair plan (dry run)" : "repair");
  for (const std::string& action : report.actions) {
    std::printf("  %s\n", action.c_str());
  }
  std::printf(
      "  dropped %llu expired and %llu non-canonical record(s); "
      "recomputed %llu bound(s); excised %llu empty subtree(s); "
      "%llu page(s) rewritten, %llu reclaimed\n",
      static_cast<unsigned long long>(report.records_dropped_expired),
      static_cast<unsigned long long>(report.records_dropped_noncanonical),
      static_cast<unsigned long long>(report.bounds_recomputed),
      static_cast<unsigned long long>(report.empty_subtrees_excised),
      static_cast<unsigned long long>(report.pages_rewritten),
      static_cast<unsigned long long>(report.pages_reclaimed));
}

void PrintSalvageReport(const verify::SalvageReport& report, bool dry_run) {
  std::printf("%s:\n", dry_run ? "salvage plan (dry run)" : "salvage");
  std::printf(
      "  scanned %llu page(s) (%llu leaf, %llu quarantined); "
      "%llu record(s) seen, %llu salvaged "
      "(%llu expired, %llu non-canonical dropped, %llu duplicate(s) "
      "resolved)\n",
      static_cast<unsigned long long>(report.pages_scanned),
      static_cast<unsigned long long>(report.leaf_pages),
      static_cast<unsigned long long>(report.pages_quarantined),
      static_cast<unsigned long long>(report.records_seen),
      static_cast<unsigned long long>(report.records_salvaged),
      static_cast<unsigned long long>(report.records_dropped_expired),
      static_cast<unsigned long long>(report.records_dropped_noncanonical),
      static_cast<unsigned long long>(report.duplicates_resolved));
}

void WriteRepairJson(const verify::RepairReport& report, obs::JsonWriter* w) {
  w->Key("repair").BeginObject();
  w->KV("ok", report.ok());
  w->KV("changed", report.changed());
  w->KV("needs_salvage", report.needs_salvage);
  w->KV("records_dropped_expired", report.records_dropped_expired);
  w->KV("records_dropped_noncanonical", report.records_dropped_noncanonical);
  w->KV("bounds_recomputed", report.bounds_recomputed);
  w->KV("empty_subtrees_excised", report.empty_subtrees_excised);
  w->KV("pages_rewritten", report.pages_rewritten);
  w->KV("pages_reclaimed", report.pages_reclaimed);
  w->KV("root_collapsed", report.root_collapsed);
  w->KV("meta_rewritten", report.meta_rewritten);
  w->Key("actions").BeginArray();
  for (const std::string& action : report.actions) w->Value(action);
  w->EndArray();
  w->EndObject();
}

void WriteSalvageJson(const verify::SalvageReport& report,
                      obs::JsonWriter* w) {
  w->Key("salvage").BeginObject();
  w->KV("ok", report.ok());
  w->KV("pages_scanned", report.pages_scanned);
  w->KV("leaf_pages", report.leaf_pages);
  w->KV("pages_quarantined", report.pages_quarantined);
  w->KV("records_seen", report.records_seen);
  w->KV("records_salvaged", report.records_salvaged);
  w->KV("records_dropped_expired", report.records_dropped_expired);
  w->KV("records_dropped_noncanonical", report.records_dropped_noncanonical);
  w->KV("duplicates_resolved", report.duplicates_resolved);
  w->EndObject();
}

// The per-run result, accumulated so a single JSON object can be emitted
// at the end regardless of which modes ran.
struct Outcome {
  verify::Report report;  // The final verification state of the index.
  bool ran_repair = false;
  verify::RepairReport repair;
  bool ran_salvage = false;
  verify::SalvageReport salvage;
  int exit_code = kExitFindings;
};

template <int kDims>
Outcome RunTool(PageFile* file, std::unique_ptr<DiskPageFile> owned_file,
                const FsckOptions& opt) {
  Outcome out;
  out.report = verify::TreeVerifier<kDims>::VerifyFile(file, opt.config,
                                                       opt.verify);
  if (out.report.ok()) {
    out.exit_code = kExitClean;
    return out;
  }
  if (!opt.repair && !opt.salvage) {
    out.exit_code = kExitFindings;
    return out;
  }

  bool escalate_to_salvage = opt.salvage && !opt.repair;
  if (opt.repair) {
    verify::RepairOptions repair_options;
    repair_options.verify = opt.verify;
    repair_options.dry_run = opt.dry_run;
    auto repaired =
        verify::TreeRepairer<kDims>::Repair(file, opt.config, repair_options);
    if (!repaired.ok()) {
      std::fprintf(stderr, "repair failed: %s\n",
                   repaired.status().ToString().c_str());
      out.exit_code = kExitUnsalvageable;
      return out;
    }
    out.ran_repair = true;
    out.repair = std::move(repaired).value();
    if (opt.dry_run) {
      out.exit_code = kExitFindings;
      if (out.repair.needs_salvage && !opt.salvage) return out;
      if (!out.repair.needs_salvage) return out;
      escalate_to_salvage = true;  // Plan the salvage too.
    } else if (out.repair.ok()) {
      out.report = out.repair.after;
      out.exit_code = out.repair.changed() ? kExitFixed : kExitClean;
      return out;
    } else if (opt.salvage) {
      escalate_to_salvage = true;
    } else {
      out.report = out.repair.after;
      out.exit_code = kExitUnsalvageable;
      return out;
    }
  }

  if (!escalate_to_salvage) return out;

  verify::SalvageOptions salvage_options;
  salvage_options.now = opt.verify.now;
  salvage_options.fill = opt.fill;
  salvage_options.dry_run = opt.dry_run;
  salvage_options.verify = opt.verify;
  std::vector<verify::QuarantinedPage> quarantine;

  if (opt.dry_run) {
    auto salvaged = verify::TreeRepairer<kDims>::Salvage(
        file, nullptr, opt.config, salvage_options, &quarantine);
    if (!salvaged.ok()) {
      std::fprintf(stderr, "salvage failed: %s\n",
                   salvaged.status().ToString().c_str());
      out.exit_code = kExitUnsalvageable;
      return out;
    }
    out.ran_salvage = true;
    out.salvage = std::move(salvaged).value();
    out.exit_code = kExitFindings;
    return out;
  }

  // Build the fresh tree beside the damaged file, then atomically rename
  // it over the original so a crash mid-salvage never destroys the input.
  const std::string fresh_path = opt.path + ".salvaged";
  std::remove(fresh_path.c_str());
  auto fresh_or = DiskPageFile::Open(fresh_path, opt.config.page_size,
                                     /*keep=*/true);
  if (!fresh_or.ok()) {
    std::fprintf(stderr, "cannot create %s: %s\n", fresh_path.c_str(),
                 fresh_or.status().ToString().c_str());
    out.exit_code = kExitUnsalvageable;
    return out;
  }
  auto fresh = std::move(fresh_or).value();
  auto salvaged = verify::TreeRepairer<kDims>::Salvage(
      file, fresh.get(), opt.config, salvage_options, &quarantine);
  if (!salvaged.ok()) {
    std::fprintf(stderr, "salvage failed: %s\n",
                 salvaged.status().ToString().c_str());
    out.exit_code = kExitUnsalvageable;
    return out;
  }
  out.ran_salvage = true;
  out.salvage = std::move(salvaged).value();
  if (!quarantine.empty()) {
    const std::string qpath = opt.quarantine_path.empty()
                                  ? opt.path + ".quarantine"
                                  : opt.quarantine_path;
    if (!WriteQuarantineFile(qpath, quarantine)) {
      out.exit_code = kExitUnsalvageable;
      return out;
    }
    if (!opt.quiet) {
      std::printf("quarantined %zu page(s) into %s\n", quarantine.size(),
                  qpath.c_str());
    }
  }
  if (!out.salvage.ok()) {
    out.report = out.salvage.after;
    out.exit_code = kExitUnsalvageable;
    return out;
  }
  // Close both files before renaming the rebuilt one over the original.
  fresh.reset();
  owned_file.reset();
  if (std::rename(fresh_path.c_str(), opt.path.c_str()) != 0) {
    std::fprintf(stderr, "cannot rename %s over %s\n", fresh_path.c_str(),
                 opt.path.c_str());
    out.exit_code = kExitUnsalvageable;
    return out;
  }
  out.report = out.salvage.after;
  out.exit_code = kExitFixed;
  return out;
}

void WriteJson(const FsckOptions& opt, const Outcome& out) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KV("path", opt.path);
  w.KV("partitioned", opt.manifest);
  w.KV("page_size", static_cast<uint64_t>(opt.config.page_size));
  w.KV("now", opt.verify.now);
  w.KV("meta_epoch", out.report.meta_epoch);
  w.KV("height", static_cast<int64_t>(out.report.height));
  w.KV("pages_walked", out.report.pages_walked);
  w.KV("entries_checked", out.report.entries_checked);
  w.KV("leaf_records_checked", out.report.leaf_records_checked);
  w.KV("live_leaf_entries", out.report.live_leaf_entries);
  w.KV("underfull_nodes", out.report.underfull_nodes);
  w.KV("damaged_meta_slots",
       static_cast<int64_t>(out.report.damaged_meta_slots));
  w.KV("walk_complete", out.report.walk_complete);
  verify::WriteReportJson(out.report, &w);
  if (out.ran_repair) WriteRepairJson(out.repair, &w);
  if (out.ran_salvage) WriteSalvageJson(out.salvage, &w);
  w.KV("exit_code", static_cast<int64_t>(out.exit_code));
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  FsckOptions opt;
  uint32_t page_size = 4096;
  int first_flag = 2;
  if (std::strcmp(argv[1], "--manifest") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "--manifest requires a path\n");
      return Usage(argv[0]);
    }
    opt.manifest = true;
    opt.path = argv[2];
    first_flag = 3;
  } else {
    opt.path = argv[1];
  }
  for (int i = first_flag; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      opt.json = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      opt.quiet = true;
    } else if (std::strcmp(argv[i], "--repair") == 0) {
      opt.repair = true;
    } else if (std::strcmp(argv[i], "--salvage") == 0) {
      opt.salvage = true;
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      opt.dry_run = true;
    } else if (std::strcmp(argv[i], "--stored-expiry") == 0) {
      opt.config.store_tpbr_expiration = true;
    } else if (std::strncmp(argv[i], "--quarantine=", 13) == 0) {
      opt.quarantine_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--quarantine") == 0 ||
               std::strcmp(argv[i], "--now") == 0 ||
               std::strcmp(argv[i], "--page-size") == 0 ||
               std::strcmp(argv[i], "--dims") == 0 ||
               std::strcmp(argv[i], "--config") == 0 ||
               std::strcmp(argv[i], "--samples") == 0 ||
               std::strcmp(argv[i], "--fill") == 0 ||
               std::strcmp(argv[i], "--max-findings") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flag %s requires a value\n", argv[i]);
        return Usage(argv[0]);
      }
      const char* value = argv[i + 1];
      if (std::strcmp(argv[i], "--quarantine") == 0) {
        opt.quarantine_path = value;
      } else if (std::strcmp(argv[i], "--now") == 0) {
        if (!ParseDouble(value, &opt.verify.now)) {
          std::fprintf(stderr, "--now requires a finite number, got '%s'\n",
                       value);
          return Usage(argv[0]);
        }
      } else if (std::strcmp(argv[i], "--page-size") == 0) {
        if (!ParsePositiveU32(value, &page_size)) {
          std::fprintf(stderr,
                       "--page-size must be a positive integer, got '%s'\n",
                       value);
          return Usage(argv[0]);
        }
      } else if (std::strcmp(argv[i], "--dims") == 0) {
        int32_t dims = 0;
        if (!ParseI32(value, &dims) || dims < 1 || dims > 3) {
          std::fprintf(stderr, "--dims must be 1, 2, or 3, got '%s'\n",
                       value);
          return Usage(argv[0]);
        }
        opt.dims = dims;
      } else if (std::strcmp(argv[i], "--config") == 0) {
        const bool stored_expiry = opt.config.store_tpbr_expiration;
        if (std::strcmp(value, "rexp") == 0) {
          opt.config = TreeConfig::Rexp();
        } else if (std::strcmp(value, "tpr") == 0) {
          opt.config = TreeConfig::Tpr();
        } else {
          std::fprintf(stderr, "--config must be 'rexp' or 'tpr'\n");
          return Usage(argv[0]);
        }
        opt.config.store_tpbr_expiration |= stored_expiry;
      } else if (std::strcmp(argv[i], "--samples") == 0) {
        int32_t samples = 0;
        if (!ParseI32(value, &samples) || samples < 0) {
          std::fprintf(stderr,
                       "--samples must be a non-negative integer, got '%s'\n",
                       value);
          return Usage(argv[0]);
        }
        opt.verify.horizon_samples = samples;
      } else if (std::strcmp(argv[i], "--fill") == 0) {
        if (!ParseDouble(value, &opt.fill) ||
            !(opt.fill > 0 && opt.fill <= 1.0)) {
          std::fprintf(stderr, "--fill must be in (0, 1], got '%s'\n", value);
          return Usage(argv[0]);
        }
      } else {
        uint32_t n = 0;
        if (!ParsePositiveU32(value, &n)) {
          std::fprintf(stderr,
                       "--max-findings must be a positive integer, got "
                       "'%s'\n",
                       value);
          return Usage(argv[0]);
        }
        opt.verify.max_findings = static_cast<size_t>(n);
      }
      ++i;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  opt.config.page_size = page_size;

  if (opt.manifest) {
    if (opt.repair || opt.salvage || opt.dry_run) {
      std::fprintf(stderr,
                   "--manifest mode is check-only; --repair/--salvage/"
                   "--dry-run apply to single index files\n");
      return Usage(argv[0]);
    }
    Outcome out;
    int dims = 0;
    out.report =
        partition::VerifyPartitionedAuto(opt.path, opt.config, opt.verify,
                                         &dims);
    out.exit_code = out.report.ok() ? kExitClean : kExitFindings;
    if (opt.json) {
      WriteJson(opt, out);
    } else if (!opt.quiet || !out.report.ok()) {
      std::printf("%s", out.report.ToString().c_str());
    }
    return out.exit_code;
  }

  // DiskPageFile::Open creates missing files; a checker must not. Probe
  // for existence first so a typo'd path is an error, not a clean run
  // over a freshly created empty file.
  std::FILE* probe = std::fopen(opt.path.c_str(), "rb");
  if (probe == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opt.path.c_str());
    return kExitFindings;
  }
  std::fclose(probe);

  auto file_or = DiskPageFile::Open(opt.path, page_size, /*keep=*/true);
  if (!file_or.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", opt.path.c_str(),
                 file_or.status().ToString().c_str());
    return kExitFindings;
  }
  auto file = std::move(file_or).value();
  PageFile* raw = file.get();

  // Dims come from the newest valid meta slot, as --manifest mode takes
  // them from the manifest. --dims must agree with them; it decides only
  // when no slot is readable.
  const MetaRead meta = ReadMeta(raw, kAnyMetaDims);
  const int recorded = meta.found() ? meta.slots[meta.slot].dims : 0;
  if (recorded >= 1 && recorded <= 3) {
    if (opt.dims != 0 && opt.dims != recorded) {
      std::fprintf(stderr,
                   "--dims %d disagrees with the %d dims %s records; "
                   "nothing was checked or written\n",
                   opt.dims, recorded, opt.path.c_str());
      return kExitUsage;
    }
    opt.dims = recorded;
  }

  Outcome out;
  switch (opt.dims) {
    case 1:
      out = RunTool<1>(raw, std::move(file), opt);
      break;
    case 3:
      out = RunTool<3>(raw, std::move(file), opt);
      break;
    default:
      out = RunTool<2>(raw, std::move(file), opt);
      break;
  }

  if (opt.json) {
    WriteJson(opt, out);
  } else {
    if (out.ran_repair && (!opt.quiet || !out.repair.ok())) {
      PrintRepairReport(out.repair, opt.dry_run);
    }
    if (out.ran_salvage && (!opt.quiet || !out.salvage.ok())) {
      PrintSalvageReport(out.salvage, opt.dry_run);
    }
    if (!opt.quiet || !out.report.ok()) {
      std::printf("%s", out.report.ToString().c_str());
    }
  }
  if (out.exit_code == kExitFindings ||
      out.exit_code == kExitUnsalvageable) {
    // Leave the recent-operation context beside the damage report. The
    // ring is empty for a purely offline check, but when fsck runs inside
    // a process that exercised the index (tests, embedded use) the dump
    // shows what ran right before the corruption.
    std::string dump = obs::DumpFlightRecorderNow("fsck_findings");
    if (!dump.empty() && !opt.quiet) {
      std::fprintf(stderr, "flight recorder dumped to %s\n", dump.c_str());
    }
  }
  return out.exit_code;
}
