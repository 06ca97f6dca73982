#!/usr/bin/env bash
# Project convention lint — grep-level rules that clang-tidy cannot
# express because they are about *this* codebase's layering, not C++.
# CI runs this on every push; it needs no compiler and finishes in
# milliseconds, so run it locally before sending a change.
#
#   usage: scripts/check_conventions.sh
#
# Rules:
#   1. No raw `Page*` outside src/storage/. Pages live in buffer-manager
#      frames; holding a bare pointer without the pinning PageGuard is
#      how use-after-evict bugs start. The codec/serialize sites that
#      legitimately receive a caller-pinned page carry a `raw-page-ok`
#      marker comment (same line or the two lines above) with a reason.
#   2. No unchecked numeric parsing (atoi/atof/atol/strtol family,
#      std::stoi/stod). They return 0 or throw on garbage with no usable
#      error signal; use the checked helpers in src/common/parse.h,
#      which is also the only file allowed to touch the strto* calls it
#      wraps.
#   3. No <mutex>/<shared_mutex>/<condition_variable> primitives outside
#      src/sched/. Everything else must use sched::Mutex and friends so
#      the lock-rank checker and the Clang thread-safety annotations see
#      every acquisition. A std::mutex elsewhere is invisible to both.
#   4. The meta page's layout has one owner. kMetaMagic, the
#      kMeta*FieldOffset constants and kMetaFreeListOffset may appear only
#      in src/tree/meta_format.{h,cc}; everything else encodes and reads
#      the page through EncodeMeta and ReadMeta (DESIGN.md §13).
#   5. The node page header has one owner. Reads and writes of the level
#      tag and entry count (`Read<uint16_t>(0|2)`, `Write<uint16_t>(0|2)`)
#      may appear in src/, tools/ and bench/ only in src/tree/node.cc
#      (NodeCodec) and in src/btree/btree.cc (the B-tree's own format);
#      everything else reads node pages through NodeCodec::DecodeChecked
#      (DESIGN.md §13). Tests may spell the offsets out to seed damage.
#   6. Storage telemetry has one owner per layer. AddCounter, AddGauge and
#      AddHistogram calls that name a "buffer." or "device." metric (on
#      the call's line or the line after) may appear in src/, tools/,
#      bench/ and examples/ only under src/storage/, where
#      BufferManager::RegisterMetrics and PageFile::RegisterMetrics walk
#      the IoStats and DeviceStats lists; every other component calls
#      those, so none can register a hand-picked subset (DESIGN.md §13).
#      Tests may bind such names to exercise the registry itself.
#   7. The tree has one structural write path. Outside their declaration
#      and definition, Tree::SettleNode and Tree::ReattachChild are each
#      called from exactly one place in src/: the settle step,
#      Tree::SettleBatchNode, through which every Insert, Delete, Update
#      and GroupUpdate stores and re-bounds what it changed (DESIGN.md
#      §10, §13). A second caller is a second propagation step.
#   8. Test hooks stay in tests. A `*ForTest(` member may appear in src/
#      and tools/ only in its declaration and definition; production code
#      that needs what a hook gives gets a real API (DESIGN.md §13).
#   9. The DAT trust rule has one owner. The direct-access table trusts a
#      recorded leaf only while the object has exactly one physical copy;
#      in src/tree/ only dat.h may compare a DAT entry's `count` with 1.
#      Everyone else asks DirectAccessTable::PinnedLeaf (DESIGN.md §10,
#      §13). The verifier's independent cross-check (src/verify/) is
#      outside the rule.
#  10. Outside tests/, no checker aborts. Every front-end has one check,
#      `Verify(now) -> verify::Report`, which returns its findings
#      (tree/index_contract.h); `void CheckInvariants(` and `VerifyPages(`
#      may not appear in src/, tools/ or bench/. LiveTier::CheckInvariants,
#      which returns a Status, is allowed.
#  11. The index's shared rules have one owner each. In src/, tools/,
#      bench/ and examples/ only src/tree/tree_config.h may read
#      `min_fill_fraction`: TreeConfig::MinEntries is R*'s minimum fill
#      for the tree, the verifier and repair alike. The expiry-
#      monotonicity tolerance (`- 1e-6`) may appear only in
#      src/verify/verifier.{h,cc}, whose ExpiryUnderestimates repair
#      shares (DESIGN.md §9, §13).
set -u -o pipefail

cd "$(dirname "$0")/.."

fail=0
report() {  # report <rule> <file:line:text>
  echo "conventions: [$1] $2" >&2
  fail=1
}

# Files under the rules: first-party C++ sources and headers.
mapfile -t files < <(git ls-files 'src/*.h' 'src/*.cc' 'tools/*.h' \
                                  'tools/*.cc' 'tests/*.cc' 'bench/*.cc' \
                                  'examples/*.cc')

# --- Rule 1: raw Page* outside src/storage/ -------------------------------
for f in "${files[@]}"; do
  case "$f" in src/storage/*) continue ;; esac
  while IFS= read -r hit; do
    line="${hit%%:*}"
    # Allowed when the line itself or either of the two preceding lines
    # carries the marker (signatures too long for a same-line comment put
    # it just above).
    start=$((line > 2 ? line - 2 : 1))
    if ! sed -n "${start},${line}p" "$f" | grep -q 'raw-page-ok'; then
      report "raw-page" "$f:$hit"
    fi
  done < <(grep -nE '(^|[^A-Za-z_])Page[[:space:]]*\*' "$f" || true)
done

# --- Rule 2: unchecked numeric parsing ------------------------------------
# Matches both bare and std::-qualified spellings. A parser that uses
# strto* *with* its end pointer and validates it may carry a
# `checked-parse-ok` marker with a reason.
for f in "${files[@]}"; do
  [ "$f" = "src/common/parse.h" ] && continue   # the checked wrappers
  while IFS= read -r hit; do
    case "$hit" in *checked-parse-ok*) continue ;; esac
    report "unchecked-parse" "$f:$hit (use common/parse.h)"
  done < <(grep -nE \
    '(^|[^A-Za-z_.>])(std::)?(atoi|atof|atol|atoll|strtol|strtoll|strtoul|strtoull|strtod|strtof)[[:space:]]*\(|std::sto(i|l|ll|ul|ull|f|d|ld)[[:space:]]*\(' \
    "$f" || true)
done

# --- Rule 3: std synchronization primitives outside src/sched/ ------------
for f in "${files[@]}"; do
  case "$f" in src/sched/*) continue ;; esac
  while IFS= read -r hit; do
    # <mutex> also provides once_flag/call_once, which are not locks; a
    # `std-mutex-ok` marker with a reason admits such an include.
    case "$hit" in *std-mutex-ok*) continue ;; esac
    report "std-mutex" "$f:$hit (use sched::Mutex / sched::SharedMutex)"
  done < <(grep -nE \
    'std::(mutex|shared_mutex|timed_mutex|recursive_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable(_any)?)([^A-Za-z_]|$)|#[[:space:]]*include[[:space:]]*<(mutex|shared_mutex|condition_variable)>' \
    "$f" || true)
done

# --- Rule 4: meta layout constants outside tree/meta_format ---------------
for f in "${files[@]}"; do
  case "$f" in src/tree/meta_format.h|src/tree/meta_format.cc) continue ;; esac
  while IFS= read -r hit; do
    report "meta-layout" "$f:$hit (use EncodeMeta / ReadMeta)"
  done < <(grep -nE \
    'kMetaMagic|kMeta[A-Za-z]*FieldOffset|kMetaFreeListOffset' "$f" || true)
done

# --- Rule 5: node header offsets outside NodeCodec -------------------------
for f in "${files[@]}"; do
  case "$f" in
    src/tree/node.cc|src/btree/btree.cc) continue ;;
    src/*|tools/*|bench/*) ;;
    *) continue ;;
  esac
  while IFS= read -r hit; do
    report "node-header" "$f:$hit (use NodeCodec::DecodeChecked)"
  done < <(grep -nE '(Read|Write)<uint16_t>\((0|2)[,)]' "$f" || true)
done

# --- Rule 6: buffer./device. metric names outside src/storage/ -----------
for f in "${files[@]}"; do
  case "$f" in
    src/storage/*) continue ;;
    src/*|tools/*|bench/*|examples/*) ;;
    *) continue ;;
  esac
  while IFS= read -r hit; do
    report "storage-metrics" \
      "$f:$hit (use BufferManager/PageFile::RegisterMetrics)"
  done < <(awk '
    pending && /"(buffer|device)\./ { print FNR ":" $0 }
    { pending = 0 }
    /Add(Counter|Gauge|Histogram)\(/ {
      if ($0 ~ /"(buffer|device)\./) print FNR ":" $0; else pending = 1
    }' "$f")
done

# --- Rule 7: one settle step ----------------------------------------------
for fn in SettleNode ReattachChild; do
  sites=()
  for f in "${files[@]}"; do
    case "$f" in src/*) ;; *) continue ;; esac
    # Calls only: not the definition (`Tree<kDims>::fn(`) and not the
    # declaration (a return type before the name).
    while IFS= read -r hit; do
      sites+=("$f:${hit%%:*}")
    done < <(grep -nE "(^|[^A-Za-z_:])${fn}\(" "$f" |
             grep -vE "^[0-9]+:[[:space:]]*(PageId|void)[[:space:]]+${fn}\(" ||
             true)
  done
  if [ "${#sites[@]}" -ne 1 ]; then
    report "one-settle-step" \
      "${fn} is called from ${#sites[@]} places (${sites[*]}); only the settle step, Tree::SettleBatchNode, may call it"
  fi
done

# --- Rule 8: test hooks stay in tests --------------------------------------
for f in "${files[@]}"; do
  case "$f" in src/*|tools/*) ;; *) continue ;; esac
  # A declaration or definition names the hook right after its return
  # type (optionally class-qualified); anything else, `return` included,
  # is a call.
  while IFS= read -r hit; do
    report "test-hook" "$f:$hit (a *ForTest hook is for tests only)"
  done < <(awk '
    /[A-Za-z0-9_]ForTest\(/ {
      decl = $0 ~ /^[[:space:]]*[A-Za-z_][A-Za-z0-9_:<>, *&]*[[:space:]*&>]([A-Za-z_][A-Za-z0-9_<>]*::)?[A-Za-z_][A-Za-z0-9_]*ForTest\(/
      if (!decl || $0 ~ /^[[:space:]]*return[[:space:]]/) print FNR ":" $0
    }' "$f")
done

# --- Rule 9: one owner of the DAT trust rule -------------------------------
for f in "${files[@]}"; do
  case "$f" in
    src/tree/dat.h) continue ;;
    src/tree/*) ;;
    *) continue ;;
  esac
  while IFS= read -r hit; do
    report "dat-trust" "$f:$hit (use DirectAccessTable::PinnedLeaf)"
  done < <(grep -nE \
    '(\.|->)count[[:space:]]*[!=]=[[:space:]]*1([^0-9.]|$)|(^|[^0-9.])1[[:space:]]*[!=]=[[:space:]]*[A-Za-z_][A-Za-z0-9_]*(\.|->)count([^A-Za-z0-9_(]|$)' \
    "$f" || true)
done

# --- Rule 10: checkers return findings, they do not abort -----------------
for f in "${files[@]}"; do
  case "$f" in src/*|tools/*|bench/*) ;; *) continue ;; esac
  while IFS= read -r hit; do
    report "aborting-check" "$f:$hit (return a verify::Report from Verify)"
  done < <(grep -nE 'void[[:space:]]+([A-Za-z_][A-Za-z0-9_<>]*::)?CheckInvariants\(|VerifyPages\(' "$f" || true)
done

# --- Rule 11: one owner of the minimum fill and the expiry tolerance ------
for f in "${files[@]}"; do
  case "$f" in src/*|tools/*|bench/*|examples/*) ;; *) continue ;; esac
  if [ "$f" != "src/tree/tree_config.h" ]; then
    while IFS= read -r hit; do
      report "min-fill" "$f:$hit (ask TreeConfig: MinEntries, ValidBulkFill)"
    done < <(grep -n 'min_fill_fraction' "$f" || true)
  fi
  case "$f" in src/verify/verifier.h|src/verify/verifier.cc) continue ;; esac
  while IFS= read -r hit; do
    report "expiry-tolerance" "$f:$hit (use verify::ExpiryUnderestimates)"
  done < <(grep -nE -- '-[[:space:]]*1e-6([^0-9]|$)' "$f" || true)
done

if [ "$fail" -ne 0 ]; then
  echo "conventions: violations found (markers: see scripts/check_conventions.sh)" >&2
  exit 1
fi
echo "conventions: OK (${#files[@]} files)"
