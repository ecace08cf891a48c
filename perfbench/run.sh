#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artifact (binary, Go build cache,
# Go's own config/telemetry files) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gomodcache" "${out}/config" "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTMPDIR="${out}/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
