#!/usr/bin/env bash
# Builds the simulator benchmark from this checkout's source and runs it:
#
#   bash simbench/run.sh --workload paper-batch --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# Keep every toolchain write inside the checkout and never touch the
# network: the benchmark needs only the standard library and this module.
(
	cd "$root/simbench"
	GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$out/simbench" .
)
exec "$out/simbench" "$@"
