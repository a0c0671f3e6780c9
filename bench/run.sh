#!/bin/sh
# Builds fdwbench from this checkout and runs it, passing every argument
# through. Run from the repository root:
#
#	sh bench/run.sh --workload dagman-paper --seed 11 --seconds 10 --trace 0
#
# The Go build cache, temp files and the binary live under .bench_build/
# so a run reads and writes only inside the checkout; the first run
# fills the cache, later ones rebuild in about a second.
set -eu
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The module has no dependencies: never fetch a module or a toolchain.
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/fdwbench" ./bench/fdwbench
exec "$build/fdwbench" "$@"
