#!/usr/bin/env bash
# Builds the benchmark and the faultmem CLI from this checkout, then runs
# one workload. Every build artefact and cache stays in .bench_build.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$out/perfbench" . >&2
go build -o "$out/faultmem" faultmem/cmd/faultmem >&2
cd "$root"
exec "$out/perfbench" -faultmem "$out/faultmem" -out "$out" "$@"
