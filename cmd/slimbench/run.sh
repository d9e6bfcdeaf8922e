#!/usr/bin/env bash
# Builds slimbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash cmd/slimbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary, and everything the benchmark writes stay
# under .bench_build in the current directory. Go telemetry is switched off
# there (its mode file lives under XDG_CONFIG_HOME), so the go command
# starts no sidecar process that could outlive the build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go telemetry off
go -C "$root/cmd/slimbench" build -o "$out/slimbench" .
exec "$out/slimbench" "$@"
