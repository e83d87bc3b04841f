#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it. Run it
# from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload paper-4gpu --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files all go under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config" "$out/perfbench"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
