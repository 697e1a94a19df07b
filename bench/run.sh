#!/bin/sh
# Builds the benchmark from source and runs it; every argument goes to the
# program (see bench/README.md). Run it from the root of the repository.
# Everything the build and the run write stays in .bench_build/ and bench/out/.
set -eu
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C bench -o "$build/semitri-bench" .
exec "$build/semitri-bench" "$@"
