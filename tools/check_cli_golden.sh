#!/usr/bin/env bash
# Golden test for the condensa CLI: runs a fixed set of commands on the
# fixture CSVs in tools/testdata/ and compares, byte for byte, the
# releases and saved group files they write and what they print on
# stdout against tools/testdata/golden/. A fixed (data, k, seed) must give
# the same bytes on every run and across refactors of the CLI.
#
# The only masked text is serve-stream's `queue high water N` ledger
# field: it counts how far the producer got ahead of the worker thread,
# so it depends on scheduling (two identical runs read 715 and 717).
#
# Usage: check_cli_golden.sh /path/to/condensa            compare
#        check_cli_golden.sh /path/to/condensa --record   rewrite golden/
set -u

CLI="${1:?usage: check_cli_golden.sh /path/to/condensa [--record]}"
MODE="${2:-}"
case "$CLI" in /*) ;; *) CLI="$PWD/$CLI" ;; esac
DATA="$(cd "$(dirname "$0")/testdata" && pwd)"
GOLDEN="$DATA/golden"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
cp "$DATA"/*.csv .
mkdir out
failures=0

# run NAME ARGS...: runs the CLI (which must exit 0) and keeps its stdout
# as out/NAME.stdout. Paths are relative to the work directory, so the
# paths a command prints are the same on every machine.
run() {
  local name="$1"; shift
  if ! "$CLI" "$@" > "out/$name.stdout" 2> "$name.stderr"; then
    echo "FAIL: $name exited nonzero: condensa $*" >&2
    cat "$name.stderr" >&2
    failures=$((failures + 1))
  fi
  sed -i -E 's/queue high water [0-9]+/queue high water N/g' \
    "out/$name.stdout"
}

run condense_static condense --input=labeled.csv --k=5 --seed=7 \
  --output=out/condense_static.csv --save-groups=out/condense_static.groups
run condense_dynamic condense --input=labeled.csv --k=5 --seed=7 \
  --mode=dynamic --output=out/condense_dynamic.csv
run condense_mdav condense --input=points.csv --task=none --k=5 \
  --backend=mdav --output=out/condense_mdav.csv \
  --save-groups=out/condense_mdav.groups
run generate generate --groups=out/condense_static.groups --seed=11 \
  --output=out/generate.csv
# A fresh directory bootstraps the first batch; the second streams.
run ingest_first ingest --input=points.csv --checkpoint-dir=state --k=5 \
  --snapshot-every=16 --no-sync
run ingest_second ingest --input=more.csv --checkpoint-dir=state --k=5 \
  --snapshot-every=16 --no-sync
run recover recover --checkpoint-dir=state --k=5 \
  --save-groups=out/recover.groups
run shard shard --input=points.csv --shards=2 --k=5 --seed=3 \
  --output=out/shard.csv --save-groups=out/shard.groups
run serve_stream serve-stream --checkpoint-dir=stream1 --records=300 \
  --dim=3 --k=5 --no-sync
run serve_stream_sharded serve-stream --checkpoint-dir=stream2 \
  --records=300 --dim=3 --k=5 --shards=2 --no-sync
run inspect_pools inspect --groups=out/condense_static.groups
run inspect_groups inspect --groups=out/recover.groups
run evaluate evaluate --original=labeled.csv \
  --anonymized=out/condense_static.csv
run query_aggregate query --groups=out/condense_static.groups \
  --op=aggregate --range=0:-1:5
run query_checkpoint query --checkpoint-dir=state --k=5 --op=aggregate
run query_classify query --groups=out/condense_static.groups \
  --op=classify --points=points.csv --neighbors=3
run query_regenerate query --groups=out/condense_mdav.groups \
  --op=regenerate --seed=5 --output=out/query_regenerate.csv

if [ "$MODE" = "--record" ]; then
  rm -rf "$GOLDEN"
  cp -r out "$GOLDEN"
  echo "recorded $(ls out | wc -l) golden files in $GOLDEN"
  exit "$((failures != 0))"
fi

if ! diff -r "$GOLDEN" out >&2; then
  echo "FAIL: CLI output differs from $GOLDEN" >&2
  failures=$((failures + 1))
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures CLI golden check(s) failed" >&2
  exit 1
fi
echo "CLI golden outputs match ($(ls out | wc -l) files)"
