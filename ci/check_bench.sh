#!/bin/sh
# Benchmark-regression gate: runs ci/bench.sh and compares every variant's
# deterministic columns against the committed baseline in
# ci/bench_baseline.json — allocs/op, postings_scored/op and
# blocks_skipped/op must match exactly, B/op within B_TOLERANCE_PCT
# (default 5; it moves a few bytes with sync.Pool refills after a GC).
# ns/op is not compared: the same unchanged kernel has read 5.3–10.0 ms
# across hosts, so wall-clock and CPU questions go to bench/
# (BENCHMARK.json), which runs real processes under load.
#
#	./ci/check_bench.sh
#
# Two settings make the compared columns repeat run to run, and both sides
# must use them: a fixed iteration count (ITERATIONS below — the counters
# are averages over queries cycled by b.N, exact only at equal b.N) and
# GOMAXPROCS=1 (goroutine fan-outs run serially, and benchmark names
# carry no -N suffix). One variant is exempt: its allocations depend on
# how many documents a timed background feeder ingested during the run.
#
# A baseline variant missing from the fresh run FAILS the gate: a renamed
# or deleted benchmark would otherwise pass vacuously forever, silently
# retiring its regression coverage. Variants present only in the current
# run are reported but do not fail (new benchmarks land before their
# baseline does). Any mismatch — better or worse — fails: the baseline is
# then stale, and the PR that moved the number regenerates it and says why:
#
#	GOMAXPROCS=1 ./ci/bench.sh 1000x ci/bench_baseline.json
set -eu
cd "$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

ITERATIONS=1000x
B_TOLERANCE_PCT="${B_TOLERANCE_PCT:-5}"
EXEMPT='BenchmarkSustainedIngestServe/ingest-1k'
BASELINE=ci/bench_baseline.json

CURRENT="$(mktemp)"
BASE_TSV="$(mktemp)"
CUR_TSV="$(mktemp)"
trap 'rm -f "$CURRENT" "$BASE_TSV" "$CUR_TSV"' EXIT

GOMAXPROCS=1 ./ci/bench.sh "$ITERATIONS" "$CURRENT"

# Both files are emitted by ci/bench.sh's own awk: a JSON array with one
# record per line, so line-oriented extraction is reliable without a JSON
# tool. Output: name allocs/op postings_scored/op blocks_skipped/op B/op,
# "-" where a variant does not report the metric.
extract() {
    awk '
    function field(key,    re) {
        re = "\"" key "\": [0-9.e+]*"
        if (!match($0, re)) return "-"
        return substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
    }
    /"name"/ {
        if (!match($0, /"name": "[^"]*"/)) next
        name = substr($0, RSTART + 9, RLENGTH - 10)
        print name, field("allocs/op"), field("postings_scored/op"), field("blocks_skipped/op"), field("B/op")
    }' "$1"
}
extract "$BASELINE" > "$BASE_TSV"
extract "$CURRENT" > "$CUR_TSV"

echo ">> comparing against $BASELINE (counts exact, B/op within ${B_TOLERANCE_PCT}%)"
fail=0
while read -r name base_allocs base_scored base_skipped base_bytes; do
    cur_line=$(grep -F -- "$name " "$CUR_TSV" | head -n1 || true)
    if [ -z "$cur_line" ]; then
        echo "   [FAIL] $name: in baseline but missing from current run (renamed or deleted?)"
        fail=1
        continue
    fi
    if [ "$name" = "$EXEMPT" ]; then
        echo "   [skip] $name: allocations follow a timed background feeder"
        continue
    fi
    set -- $cur_line
    for metric in allocs/op postings_scored/op blocks_skipped/op; do
        case "$metric" in
        allocs/op)          b="$base_allocs";  c="$2" ;;
        postings_scored/op) b="$base_scored";  c="$3" ;;
        blocks_skipped/op)  b="$base_skipped"; c="$4" ;;
        esac
        [ "$b" != - ] || continue
        if [ "$b" = "$c" ]; then
            echo "   [ ok ] $name: $metric $c"
        else
            echo "   [FAIL] $name: $metric $c vs baseline $b (must match exactly)"
            fail=1
        fi
    done
    if awk -v b="$base_bytes" -v c="$5" -v tol="$B_TOLERANCE_PCT" \
        'BEGIN { d = c - b; if (d < 0) d = -d; exit !(d > b * tol / 100) }'; then
        echo "   [FAIL] $name: B/op $5 vs baseline $base_bytes (more than ${B_TOLERANCE_PCT}% apart)"
        fail=1
    else
        echo "   [ ok ] $name: B/op $5 vs baseline $base_bytes"
    fi
done < "$BASE_TSV"

# Surface benchmarks that exist only in the current run, for visibility.
while read -r name _; do
    if ! grep -qF -- "$name " "$BASE_TSV"; then
        echo "   [new ] $name: no baseline yet"
    fi
done < "$CUR_TSV"

if [ "$fail" -ne 0 ]; then
    echo "benchmark gate FAILED: regenerate the baseline if the change is intended:" >&2
    echo "    GOMAXPROCS=1 ./ci/bench.sh $ITERATIONS $BASELINE" >&2
    exit 1
fi
echo '>> benchmark gate passed'
