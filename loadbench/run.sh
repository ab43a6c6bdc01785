#!/usr/bin/env bash
# Builds ccserved and the load generator from this checkout, then runs one
# benchmark workload. Run from the root of the checkout:
#
#   bash loadbench/run.sh --workload gen-hit --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and per-run data directories all live
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout. Build logs go to stderr; the last line of stdout
# is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/ccserved || ! -f loadbench/go.mod || ! -d testdata/golden ]]; then
	echo "loadbench: run from the root of a go-ccts checkout (go.mod, cmd/ccserved, testdata/golden)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/runs"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(
	cd loadbench
	go build -o "$out/bin/loadbench" .
	go build -o "$out/bin/ccserved" github.com/go-ccts/ccts/cmd/ccserved
) >&2

exec "$out/bin/loadbench" -ccserved "$out/bin/ccserved" -golden "$root/testdata/golden" -workdir "$out/runs" "$@"
