#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs and the Go build cache go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
fi
if [ -z "$commit" ]; then
	# Not a git checkout: stamp a digest of the Go sources instead.
	commit="src-$(cd "$root" && find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)"
fi
exec "$out/perfbench" --commit "$commit" "$@"
