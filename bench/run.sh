#!/usr/bin/env bash
# One wrapper for every way of running the benchmark: it builds newslinkd
# and the benchmark driver from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout), runs the driver
# under a time limit, and on any exit path kills what is still running and
# removes the run's scratch directory (inputs, WALs, snapshots, logs).
#
#   bash bench/run.sh --workload search-hot --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh --all [--seed N] [--repeat R] [--out FILE]
#   bash bench/run.sh compare A.json B.json
#
# NLBENCH_TIMEOUT (seconds) overrides the limit: 170 for one run, which the
# contract wants finished within 180, and an hour for --all.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
ROOT=$PWD
BUILD=$ROOT/.bench_build

export GOCACHE=$BUILD/gocache GOTMPDIR=$BUILD/gotmp GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$BUILD" "$GOTMPDIR"
# stdout is the result channel; build chatter goes to stderr.
go build -o "$BUILD/newslinkd" ./cmd/newslinkd >&2
go -C bench build -o "$BUILD/nlbench" . >&2

if [ "${1:-}" = compare ]; then
    exec "$BUILD/nlbench" "$@"
fi

limit=${NLBENCH_TIMEOUT:-170}
for a in "$@"; do
    if [ "$a" = --all ] || [ "$a" = -all ]; then limit=${NLBENCH_TIMEOUT:-3600}; fi
done

NLBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export NLBENCH_COMMIT
WORK=$BUILD/run-$$
mkdir -p "$WORK"

pid=
cleanup() {
    # timeout(1) runs the driver in its own process group and passes the
    # signal on to all of it, newslinkd children included.
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -TERM "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

timeout -k 10 "$limit" "$BUILD/nlbench" --newslinkd "$BUILD/newslinkd" --workdir "$WORK" "$@" &
pid=$!
wait "$pid"
