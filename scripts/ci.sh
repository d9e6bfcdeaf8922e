#!/bin/sh
# CI lane: lint (vet + slimvet), build, the full test suite under the
# race detector, then the env-gated fault-injection sweep — persistence
# faults plus the WAL torture lane (docs/ROBUSTNESS.md) — the trace smoke
# and the benchmark module's tests. Mirrors `make ci` for environments
# without make.
set -eux

go vet ./...
go run ./cmd/slimvet ./...
# Gating zero-baseline concurrency lane: the packages the MVCC refactor
# (ROADMAP item 2) will rewrite must pass the four concurrency-safety
# analyzers with no baseline at all — new debt there fails CI immediately.
go run ./cmd/slimvet -baseline "" -enable aliasguard,lockorder,atomichygiene,gorolife ./internal/trim ./internal/wal ./internal/durable
go build ./...
go test -race ./...
SLIM_FAULT_SWEEP=1 go test -run FaultSweep ./internal/trim/ ./internal/mark/
go test -run TraceSmoke ./cmd/trimq/ ./cmd/slimpad/
# The benchmark module's tests: cmd/slimbench is a nested module the root
# `go test ./...` skips. Same module settings as cmd/slimbench/run.sh.
GOFLAGS=-mod=mod GOPROXY=off go -C cmd/slimbench test ./...

# Gating slimload smoke: a short concurrent sweep must complete without
# error (exit code only — throughput numbers from CI machines are noise).
go run ./cmd/slimload -duration 2s -goroutines 1,4 -out /dev/null > /dev/null

# Gating space-accounting smoke (docs/OBSERVABILITY.md "Space accounting
# & alloc probes"): the demo pad's store must produce valid space JSON
# whose duplication ratio clears 1.1 — the -min-dup floor exits nonzero
# if the accountant ever stops seeing the demo store's repeated strings.
SPACE_DIR=$(mktemp -d)
go run ./cmd/slimpad demo -out "$SPACE_DIR/rounds.xml" -patients 2 > /dev/null
go run ./cmd/trimq -store "$SPACE_DIR/rounds.xml" -json -min-dup 1.1 space > "$SPACE_DIR/space.json"
grep -q '"duplication_ratio"' "$SPACE_DIR/space.json"
grep -q '"interning"' "$SPACE_DIR/space.json"
rm -rf "$SPACE_DIR"

# Non-gating perf-trajectory lane (docs/OBSERVABILITY.md): record a
# BENCH_<label>.json benchmark snapshot for the CI environment to upload
# or commit. Failures here never fail the build.
make bench-json || echo "bench-json lane failed (non-gating)"

# Non-gating bench regression radar: diff the two newest committed
# snapshots so the per-benchmark delta table lands in the CI output.
make bench-diff || echo "bench-diff lane failed (non-gating)"

# Non-gating scaling lane: the full 1/4/16/64-goroutine slimload sweep,
# written as a BENCH_scale-<label>.json snapshot for upload or commit.
make bench-scale || echo "bench-scale lane failed (non-gating)"
