#!/usr/bin/env bash
# Builds lbserve, lbreplay and the perfbench program from this checkout and
# runs one benchmark workload. Every build product, the Go build cache and
# the per-run scratch files stay under .bench_build/ in the checkout root.
#
#   bash perfbench/run.sh --workload round-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$root" && go build -o "$out/bin/" ./cmd/lbserve ./cmd/lbreplay) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
