#!/bin/sh
# Fuzz-matrix drift check: every `func Fuzz*` in the root module must be
# listed, under its package, in the fuzz matrix of .github/workflows/ci.yml
# and in that of .github/workflows/nightly-fuzz.yml, and neither matrix may
# list a target that does not exist. Without it a new or renamed fuzz
# target silently never runs in CI. bench/ is a module of its own and has
# no fuzz targets.
#
#	./ci/check_fuzz_matrix.sh
set -eu
cd "$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"
export LC_ALL=C

TARGETS="$(mktemp)"
LISTED="$(mktemp)"
trap 'rm -f "$TARGETS" "$LISTED"' EXIT

# "pkg target" per fuzz function, pkg spelled as the matrices spell it:
# "." for the root package, "./internal/core" for a nested one.
grep -rE --include='*_test.go' --exclude-dir=bench --exclude-dir=.git \
    '^func Fuzz[A-Za-z0-9_]*\(' . |
    sed -E -e 's#^\./(.*)/[^/]*_test\.go:func (Fuzz[A-Za-z0-9_]*)\(.*#./\1 \2#' \
        -e 's#^\./[^/]*_test\.go:func (Fuzz[A-Za-z0-9_]*)\(.*#. \1#' |
    sort -u >"$TARGETS"

status=0
for wf in .github/workflows/ci.yml .github/workflows/nightly-fuzz.yml; do
    sed -nE 's#^ *- \{ *pkg: *([^,} ]+), *target: *([A-Za-z0-9_]+) *\}.*#\1 \2#p' "$wf" | sort -u >"$LISTED"
    missing=$(comm -23 "$TARGETS" "$LISTED")
    stale=$(comm -13 "$TARGETS" "$LISTED")
    if [ -n "$missing" ]; then
        printf '%s: fuzz matrix lacks (pkg target):\n%s\n' "$wf" "$missing" >&2
        status=1
    fi
    if [ -n "$stale" ]; then
        printf '%s: fuzz matrix lists targets that do not exist (pkg target):\n%s\n' "$wf" "$stale" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "fuzz matrices: all $(wc -l <"$TARGETS" | tr -d ' ') targets listed in both workflows"
fi
exit "$status"
