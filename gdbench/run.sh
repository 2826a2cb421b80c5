#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run from the repository root, e.g.
#   bash gdbench/run.sh --workload vmday-ksm --seed 1 --seconds 20 --trace 0
# Every build product and Go cache lives under .bench_build/ in the
# current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C gdbench build -o "$build/gdbench.new" .
# Keep an unchanged binary in place: rewriting it leaves megabytes of
# dirty pages that the workloads' first fsyncs would have to flush.
if cmp -s "$build/gdbench.new" "$build/gdbench"; then
	rm "$build/gdbench.new"
else
	mv "$build/gdbench.new" "$build/gdbench"
	# A real build also filled the Go cache: flush it before measuring.
	sync -f "$build/gdbench"
fi
exec "$build/gdbench" "$@"
