#!/usr/bin/env bash
# CLI regression test for checked argument parsing (common/parse.h) and
# for the tools' exit codes on clean and damaged indexes.
#
# Every numeric flag on the four tools must reject garbage with exit
# status 2 (usage) and a diagnostic on stderr — historically atoi turned
# `--page-size bogus` into page_size 0, which either corrupted the run or
# produced a misleading "must be positive" error. Run from CMake as:
#
#   cli_args_test.sh <build-tools-dir>
#
# Exit 0 when every case behaves, 1 with a report otherwise.
set -u

TOOLS_DIR="${1:?usage: cli_args_test.sh <build-tools-dir>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fails=0

# expect_usage <description> -- <cmd...>
# Asserts exit status 2 and a non-empty stderr.
expect_usage() {
  local desc="$1"
  shift 2
  local err="$TMP/err"
  "$@" >/dev/null 2>"$err"
  local status=$?
  if [[ $status -ne 2 ]]; then
    echo "FAIL: $desc — exit $status, want 2 ($*)"
    fails=$((fails + 1))
  elif [[ ! -s "$err" ]]; then
    echo "FAIL: $desc — exit 2 but no diagnostic on stderr ($*)"
    fails=$((fails + 1))
  fi
}

IDX="$TMP/idx.bin"

# corrupt_index: bogus values must die before touching the file.
expect_usage "corrupt_index --page-size bogus" -- \
  "$TOOLS_DIR/corrupt_index" "$IDX" --class none --page-size bogus
expect_usage "corrupt_index --make bogus" -- \
  "$TOOLS_DIR/corrupt_index" "$IDX" --class none --make bogus
expect_usage "corrupt_index --now bogus" -- \
  "$TOOLS_DIR/corrupt_index" "$IDX" --class none --now bogus
expect_usage "corrupt_index --seed -1" -- \
  "$TOOLS_DIR/corrupt_index" "$IDX" --class none --seed -1
if [[ -e "$IDX" ]]; then
  echo "FAIL: corrupt_index created $IDX despite a usage error"
  fails=$((fails + 1))
fi

# Build a real tiny index so the readers have a valid target; a usage
# error must fire before the file is even opened, but checking against a
# real file proves the good path still works.
if ! "$TOOLS_DIR/corrupt_index" "$IDX" --class none --make 64 \
    --page-size 512 >/dev/null 2>&1; then
  echo "FAIL: corrupt_index could not build the fixture index"
  fails=$((fails + 1))
fi

expect_usage "rexp_fsck --page-size bogus" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --page-size bogus
expect_usage "rexp_fsck --page-size 0" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --page-size 0
expect_usage "rexp_fsck --page-size -4096" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --page-size -4096
expect_usage "rexp_fsck --now bogus" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --now bogus
expect_usage "rexp_fsck --now nan" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --now nan
expect_usage "rexp_fsck --dims 2x" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --dims 2x
expect_usage "rexp_fsck --samples 1.5" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --samples 1.5
expect_usage "rexp_fsck --max-findings bogus" -- \
  "$TOOLS_DIR/rexp_fsck" "$IDX" --max-findings bogus

expect_usage "inspect_index --page-size bogus" -- \
  "$TOOLS_DIR/inspect_index" "$IDX" --page-size bogus
expect_usage "inspect_index --now 1e999" -- \
  "$TOOLS_DIR/inspect_index" "$IDX" --now 1e999
# The invariant catalog is rexp_fsck's and periodic re-rendering is
# `watch -n 1 inspect_index`'s: these modes are gone (unknown flag).
expect_usage "inspect_index --verify" -- \
  "$TOOLS_DIR/inspect_index" "$IDX" --verify
expect_usage "inspect_index --watch" -- \
  "$TOOLS_DIR/inspect_index" "$IDX" --watch

expect_usage "rexp_top --interval bogus" -- \
  "$TOOLS_DIR/rexp_top" --interval bogus --once
expect_usage "rexp_top --interval 0" -- \
  "$TOOLS_DIR/rexp_top" --interval 0 --once
expect_usage "rexp_top --soak-objects bogus" -- \
  "$TOOLS_DIR/rexp_top" --soak --soak-objects bogus
expect_usage "rexp_top --soak-seconds bogus" -- \
  "$TOOLS_DIR/rexp_top" --soak --soak-seconds bogus

# Good values must still work end to end: fsck the fixture clean.
if ! "$TOOLS_DIR/rexp_fsck" "$IDX" --page-size 512 --quiet; then
  echo "FAIL: rexp_fsck rejected the clean fixture with valid flags"
  fails=$((fails + 1))
fi

# inspect_index only reads: a tree that is opened, queried and closed
# must not commit on close, so the fixture keeps its exact bytes.
BEFORE="$(sha256sum < "$IDX")"
for mode in "" "--json"; do
  if ! "$TOOLS_DIR/inspect_index" "$IDX" --page-size 512 $mode \
      >/dev/null 2>&1; then
    echo "FAIL: inspect_index $mode rejected the clean fixture"
    fails=$((fails + 1))
  elif [[ "$(sha256sum < "$IDX")" != "$BEFORE" ]]; then
    echo "FAIL: inspect_index $mode rewrote its input"
    fails=$((fails + 1))
  fi
done

# inspect_index on a damaged index: exit 1 with a diagnostic, in both
# output modes. The fixture is a copy with one page's checksum rotted.
ROT="$TMP/rot.bin"
if ! "$TOOLS_DIR/corrupt_index" "$ROT" --class bit-rot --make 64 \
    --page-size 512 >/dev/null 2>&1; then
  echo "FAIL: corrupt_index could not build the bit-rot fixture"
  fails=$((fails + 1))
fi
for mode in "" "--json"; do
  "$TOOLS_DIR/inspect_index" "$ROT" --page-size 512 $mode \
    >"$TMP/rot_out" 2>&1
  status=$?
  if [[ $status -ne 1 ]]; then
    echo "FAIL: inspect_index $mode on bit rot — exit $status, want 1"
    fails=$((fails + 1))
  elif ! grep -qi "corruption" "$TMP/rot_out"; then
    echo "FAIL: inspect_index $mode on bit rot printed no diagnostic"
    fails=$((fails + 1))
  fi
done

# rexp_top --once over a stream with a torn tail (a writer caught
# mid-append) and a zero-histogram sample: must render the last complete
# sample and exit 0 — never hang, crash, or print the torn line.
MON="$TMP/monitor_torn.jsonl"
{
  printf '{"v":1,"type":"monitor_meta","pid":1,"interval_s":0.1,"name":"t"}\n'
  printf '{"v":1,"type":"sample","seq":0,"wall_ms":1,"dt_s":0.1,"counters":{"tree.ops.inserts":5},"rates":{},"gauges":{},"hist":{}}\n'
  printf '{"v":1,"type":"sample","seq":1,"wall_ms":101,"dt_s":0.1,"coun'
} > "$MON"
TOP_OUT="$TMP/top_out"
if ! "$TOOLS_DIR/rexp_top" --once --file "$MON" > "$TOP_OUT" 2>&1; then
  echo "FAIL: rexp_top --once failed on a torn-tail stream"
  fails=$((fails + 1))
elif ! grep -q "sample 0" "$TOP_OUT"; then
  echo "FAIL: rexp_top --once did not render the last complete sample"
  fails=$((fails + 1))
fi
if ! "$TOOLS_DIR/rexp_top" --once --json --file "$MON" | grep -q '"seq":0'; then
  echo "FAIL: rexp_top --once --json did not emit the complete sample"
  fails=$((fails + 1))
fi

if [[ $fails -ne 0 ]]; then
  echo "$fails CLI parsing regression(s)"
  exit 1
fi
echo "all CLI argument-parsing cases OK"
