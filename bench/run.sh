#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (rememberr, errserve)
# from this checkout's sources into .bench_build/, then runs it from the
# repository root. All arguments go to the benchmark, e.g.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Go's build cache, temporary files and configuration are kept under
# .bench_build/ too, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
cd "$root"
go build -o "$out/bin/" ./cmd/rememberr ./cmd/errserve
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -bin "$out/bin" "$@"
