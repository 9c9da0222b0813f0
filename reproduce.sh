#!/usr/bin/env sh
# Reproduce the full NewsLink evaluation: tests, benchmarks, and every
# table/figure of the paper's Section VII. Outputs land in the repo root
# (test_output.txt, bench_output.txt, experiments_output.txt).
#
#   ./reproduce.sh          # default scale (full): several minutes
#   ./reproduce.sh small    # quick pass: ~1 minute
set -e
SCALE="${1:-full}"

echo "== go build/vet =="
go build ./...
go vet ./...

echo "== tests =="
go test ./... 2>&1 | tee test_output.txt

echo "== benchmarks =="
go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

echo "== benchmark artifact =="
./ci/bench.sh 2s # writes BENCH.json

echo "== experiments (scale=$SCALE) =="
go run ./cmd/experiments -all -scale "$SCALE" 2>&1 | tee experiments_output.txt

echo "done: see test_output.txt, bench_output.txt, experiments_output.txt"
