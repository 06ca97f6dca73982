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

if [ "$fail" -ne 0 ]; then
  echo "conventions: violations found (markers: see scripts/check_conventions.sh)" >&2
  exit 1
fi
echo "conventions: OK (${#files[@]} files)"
