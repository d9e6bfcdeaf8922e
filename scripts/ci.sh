#!/bin/sh
# CI lane: lint (vet + slimvet), build, the full test suite under the
# race detector, then the env-gated fault-injection sweep — persistence
# faults plus the WAL torture lane (docs/ROBUSTNESS.md) — a bounded fuzz
# run of the TRIM model checker, the trace smoke and the benchmark
# module's tests. Mirrors `make ci` for environments without make.
set -eux

go vet ./...
# Gating gofmt lane: the tracked Go files only (so .bench_build/ is not
# scanned); any file gofmt lists fails CI.
unformatted=$(git ls-files -z '*.go' | xargs -0 gofmt -l)
test -z "$unformatted" || { echo "gofmt -l lists: $unformatted"; exit 1; }
# Gating analyzer lane: every analyzer, the four concurrency-safety ones
# included, on every package — any finding anywhere fails CI.
go run ./cmd/slimvet ./...
go build ./...
go test -race ./...
SLIM_FAULT_SWEEP=1 go test -run FaultSweep ./internal/trim/ ./internal/mark/
# Gating fuzz lanes: 20 s of new op tapes through the TRIM model checker,
# which checks the store's layout after every op, and 20 s of documents
# through the XML store reader beside the encoding/xml decoder it
# replaced. Minimizing a new input is capped at 10 runs, or the fuzzer
# stalls on the first one it finds.
go test -run '^$' -fuzz '^FuzzManagerOps$' -fuzztime 20s -fuzzminimizetime 10x ./internal/trim/
go test -run '^$' -fuzz '^FuzzReadXML$' -fuzztime 20s -fuzzminimizetime 10x ./internal/rdf/
go test -run TraceSmoke ./cmd/trimq/ ./cmd/slimpad/
# The benchmark module's tests: cmd/slimbench is a nested module the root
# `go test ./...` skips. Same module settings as cmd/slimbench/run.sh.
GOFLAGS=-mod=mod GOPROXY=off go -C cmd/slimbench test ./...

# Gating slimload smoke: a short concurrent sweep must complete without
# error (exit code only — throughput numbers from CI machines are noise).
go run ./cmd/slimload -duration 2s -goroutines 1,4 -out /dev/null > /dev/null

# Gating space-accounting smoke (docs/OBSERVABILITY.md "Space
# accounting"): the demo pad's store must produce valid space JSON whose
# duplication ratio clears 1.1 — the -min-dup floor exits nonzero if the
# accountant ever stops seeing the demo store's repeated strings — and
# that reports the interned layout's dictionary bytes.
SPACE_DIR=$(mktemp -d)
go run ./cmd/slimpad demo -out "$SPACE_DIR/rounds.xml" -patients 2 > /dev/null
go run ./cmd/trimq -store "$SPACE_DIR/rounds.xml" -json -min-dup 1.1 space > "$SPACE_DIR/space.json"
grep -q '"duplication_ratio"' "$SPACE_DIR/space.json"
grep -q '"dictionary_bytes"' "$SPACE_DIR/space.json"
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
