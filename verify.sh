#!/bin/sh
# Full verification gate: formatting, static checks, build, the complete
# test suite under the race detector (the concurrency tests in
# concurrency_test.go are only meaningful with -race), and the nested
# bench/ module, which compiles against internal/ packages but which
# `go test ./...` at the root never builds.
#
# CI (.github/workflows/ci.yml) invokes this same script, so the local and
# CI gates cannot drift. Strictly POSIX sh: no bashisms, and the repo root
# is resolved without relying on the caller's working directory or an
# inherited CDPATH (which would make `cd` print the target or resolve it
# against unrelated directories).
set -eu

dir=$(CDPATH='' cd -- "$(dirname -- "$0")" && pwd)
cd -- "$dir"

echo '>> gofmt'
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    printf 'gofmt: the following files need formatting:\n%s\n' "$unformatted" >&2
    exit 1
fi

echo '>> go vet ./...'
go vet ./...

echo '>> go build ./...'
go build ./...

echo '>> go test -race ./...'
go test -race ./...

echo '>> go -C bench vet ./... && go -C bench test ./...'
go -C bench vet ./...
go -C bench test ./...

echo '>> verify.sh: all checks passed'
