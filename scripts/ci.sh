#!/bin/sh
# CI entry point: build, full test suite, then the perf-regression gate.
#
# After the tests pass, the script appends fresh run-store records to
# RUNS.jsonl — the serve smoke matrix (one levee-serve/1 record per
# cell, via `levee serve --record`), the fault campaign over the full
# protection spectrum (one levee-faults/3 record carrying the
# per-backend hijack counts, via `levee faults --record`) and the
# table1 + ripe bench journals at --jobs 1 (one levee-bench-journal/4
# record per target, carrying simulated totals and host wall time) —
# and then runs `levee history --gate SINCE`, which gates every
# appended record against the most recent earlier record with the same
# (schema, config, seed). The gate compares field-by-field under the
# default tolerances (simulated cycles and latency percentiles 5%,
# terminal accounting and hijack counts 0%, wall clock 50%); a key with
# no prior record is reported as "baseline seeded" and passes — the
# append itself seeds the baseline the next CI run gates against, which
# is also how a deliberate schema bump re-baselines without tripping
# the gate on shape changes.
#
# Usage: scripts/ci.sh [bench-fuel-cap]     (default fuel cap: 20000)

set -eu

cd "$(dirname "$0")/.."
STORE=RUNS.jsonl
FUEL=${1:-20000}

echo "== build =="
dune build

echo "== tests =="
dune runtest

LEVEE="dune exec --no-build bin/levee.exe --"

# How many records the store holds before this run's appends: every
# record from index SINCE on is gated.
if [ -f "$STORE" ]; then
  SINCE=$(grep -c . "$STORE" || true)
else
  SINCE=0
fi

echo "== append: serve smoke matrix =="
$LEVEE serve --requests 12000 --record "$STORE" > /dev/null

echo "== append: fault campaign (protection spectrum) =="
$LEVEE faults --record "$STORE" > /dev/null

echo "== append: table1 + ripe journals (fuel cap $FUEL) =="
dune exec --no-build bench/main.exe -- --jobs 1 --fuel-cap "$FUEL" \
  table1 ripe > /dev/null

echo "== gate: runs $SINCE.. =="
if ! $LEVEE history --file "$STORE" --gate "$SINCE"; then
  echo "ci: FAIL (regression gate)"
  exit 1
fi
echo "ci: OK"
