#!/bin/sh
# Runs the key engine benchmarks and emits a machine-readable JSON file:
# one record per benchmark variant with ns/op, B/op, allocs/op and any
# custom metrics the benchmark reports (postings_scored/op,
# blocks_skipped/op, p99-ns, ingested-docs/sec). The BenchmarkQueryEmbed
# band covers the KG side: Table-8-style multi-entity query embedding at
# 100k and 1M synthetic nodes, cold, warm, and on a group with no common
# root (rootless: G* exhausts every label's ball, the bench/ search-cold
# shape); BenchmarkSustainedIngestServe covers the
# write side: search p99 while the streaming pipeline absorbs ~1k docs/sec;
# BenchmarkClusterScatterGather covers the serving tier: one search
# through the cluster router and three local shard workers (scatter, merge,
# and the router engine's fusion, documents and snippets) and
# BenchmarkWireCodec its data-plane codec (encode
# into a reused buffer must stay at 0 allocs/op, a response decode at 2, so
# a reflection-based fallback cannot creep back); BenchmarkFilteredSearch and BenchmarkRelated cover the
# DocFilter plane: fused search under time-window and entity-facet filters
# (with pruning counters) and related-news search off a stored embedding;
# BenchmarkGather covers result materialization: k=10 DocAt + snippet with
# the query's term set compiled once, which must stay at 0 allocs/op;
# BenchmarkSnapshotLoad covers cold start from a 6-segment snapshot through
# Load, LoadSegments and NewRouter (its allocs/op and B/op are the decoding
# work of the snapshot format); BenchmarkPublish covers the write side's
# publish: a one-document refresh, a delete and an upsert over a 10k-doc,
# 8-segment engine, whose B/op must follow the write, not the corpus, and
# a stream of 1,024 one-document refreshes per op over the same engine,
# whose B/op follows the tiered merges' write amplification;
# BenchmarkColdBuild covers the cold build (AddAll + Build of 2,000
# documents): its allocs/op and B/op are the build's allocation work, and
# its informational peak-heap-MB the transient that sets a building
# server's peak RSS; BenchmarkGraphLoad covers the knowledge graph's
# start-up: kg.Read of the 101k-node world's TSV, whose allocs/op and B/op
# are the parse and build work and whose informational retained-heap-MB is
# what the loaded graph keeps resident.
# CI uploads the file as an artifact so the performance trajectory has a
# reproducible, CI-generated source; run locally as
#
#     ./ci/bench.sh [benchtime] [outfile]
#
# with a real benchtime (e.g. 2s) for publishable numbers — CI uses a short
# smoke time so the job stays fast. The default outfile is the unversioned
# BENCH.json, which ci.yml and reproduce.sh use.
set -eu
cd "$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

BENCHTIME="${1:-1s}"
OUT="${2:-BENCH.json}"
BENCHES='BenchmarkTopKStrategies|BenchmarkParallelFusedSearch|BenchmarkSnapshotServing|BenchmarkSegmentChurn|BenchmarkQueryEmbed|BenchmarkSustainedIngestServe|BenchmarkClusterScatterGather|BenchmarkWireCodec|BenchmarkFilteredSearch|BenchmarkRelated|BenchmarkGather|BenchmarkSnapshotLoad|BenchmarkPublish|BenchmarkColdBuild|BenchmarkGraphLoad'
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# At the gate's 1000 iterations the root package runs past go test's
# default 10-minute limit (BenchmarkColdBuild alone is ≈ 0.25 s per op).
go test -run '^$' -bench "$BENCHES" -benchtime "$BENCHTIME" -benchmem -timeout 60m . ./internal/cluster | tee "$RAW"

# Parse `go test -bench` lines into a JSON array. A line looks like:
#   BenchmarkName/sub-8  100  12345 ns/op  67 B/op  8 allocs/op  9.0 extra/op
awk '
BEGIN { n = 0; print "[" }
/^Benchmark/ {
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s", $1, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { if (n) printf "\n"; print "]" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmark records)"
