#!/bin/sh
# Pre-PR gate (see DESIGN.md §7): formatting and go.mod hygiene, vet,
# fdwlint (determinism & invariant analyzers, DESIGN.md §9), build,
# race-enabled tests, and a one-iteration benchmark smoke pass.
# Run from the repo root, directly or via `make check`. CI runs exactly
# this script (.github/workflows/ci.yml).
set -eu

cd "$(dirname "$0")/.." || exit 1

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go mod tidy -diff"
go mod tidy -diff

echo "== go vet ./..."
go vet ./...

echo "== fdwlint ./... (determinism & invariant analyzers, DESIGN.md §9)"
go run ./cmd/fdwlint ./...

# shellcheck is not part of the Go toolchain, so this stage is gated
# on availability to keep the local gate self-contained; the CI lint
# job runs it unconditionally, so script regressions cannot merge.
if command -v shellcheck >/dev/null 2>&1; then
	echo "== shellcheck scripts/*.sh"
	shellcheck scripts/*.sh
else
	echo "== shellcheck not installed; skipping (CI lint job enforces it)"
fi

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# -short keeps the smoke to the 10k/100k pool configurations; the
# 1M-job ones take tens of seconds and belong to the advisory bench
# job (scripts/benchdiff.sh against BENCH_pool.json). The status check
# is explicit — not left to set -e — so the stage keeps failing the
# gate even if its output is ever piped (POSIX sh has no pipefail and
# set -e only sees the last command of a pipeline) or if stages are
# appended after it.
echo "== bench smoke (-benchtime 1x -short)"
if ! go test -run '^$' -bench . -benchtime 1x -short ./...; then
	echo "check: bench smoke FAILED" >&2
	exit 1
fi

echo "check: OK"
