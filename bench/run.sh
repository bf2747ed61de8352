#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, for example
#
#   bash bench/run.sh --workload wide-eant --seed 7 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays under
# .bench_build/, so a run reads and writes nothing outside the checkout
# except the Go toolchain itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/eantbench" .)
exec "$out/eantbench" "$@"
