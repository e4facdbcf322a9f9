#!/usr/bin/env bash
# Builds the admission-decision benchmark from this checkout and runs it
# from the repository root with the given arguments. Everything the Go
# toolchain and the benchmark write stays under .bench_build/.
# Usage: bash admbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$root/admbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off GOFLAGS= \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/admbench" .
)
cd "$root"
exec "$out/admbench" "$@"
