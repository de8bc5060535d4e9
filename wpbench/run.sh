#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash wpbench/run.sh --workload belt-wzb2-tcp --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, module cache, go env and
# telemetry files, the binary) stays under .bench_build/ in the repository
# root; the toolchain is pinned to the local one and never fetches anything.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$bench_dir/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
# The Go distribution's default install location, when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOENV="$out/goenv"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off
mkdir -p "$GOTMPDIR"

# The benchmark module resolves the repository module through a relative
# replace directive, so this fails (non-zero, no result line) when the
# benchmark directory is copied out without the sources it measures.
(cd "$bench_dir" && go build -o "$out/wpbench" .)

cd "$root"
exec "$out/wpbench" "$@"
