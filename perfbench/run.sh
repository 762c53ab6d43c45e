#!/usr/bin/env bash
# Builds dtrd and the benchmark from the checkout it is started in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload flaps --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and every run's scratch files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dtrd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dtrd and perfbench/ are required)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/dtrd" ./cmd/dtrd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dtrd "$out/dtrd" -work "$out/runs" "$@"
