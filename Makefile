# SLIM repo tasks. `make ci` is the full verification lane (vet + build +
# race-enabled tests + the fault-injection sweep); CI environments should
# run exactly that.

GO ?= go
BENCH_LABEL ?= $(shell date +%Y%m%d)

.PHONY: all build test race vet lint faults trace-smoke slimbench-test ci bench bench-json bench-diff bench-scale

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The lint lane: go vet plus slimvet, the repo's own convention analyzers
# (locking discipline, error wrapping, context flow, instrumentation
# coverage, metric-name registry — docs/STATIC_ANALYSIS.md). Gates on
# findings beyond slimvet.baseline.json and on stale baseline entries.
lint: vet
	$(GO) run ./cmd/slimvet ./...
	$(GO) run ./cmd/slimvet -baseline "" -enable aliasguard,lockorder,atomichygiene,gorolife ./internal/trim ./internal/wal ./internal/durable

test:
	$(GO) test ./...

# The race lane exercises the concurrent paths: TRIM's reader/writer and
# Observer notification, the Mark Manager's lock-free base-app calls, and
# the obs counters/histograms/tracer.
race:
	$(GO) test -race ./...

# The fault-injection lane (docs/ROBUSTNESS.md): sweeps injected faults,
# torn writes, and bit rot through the persistence and resolution paths,
# including the WAL torture tests (tail truncation at every byte offset,
# bit flips across the last record, compaction interrupted at every
# durable stage). The sweep tests are env-gated so the plain
# `go test ./...` lane stays fast; this target turns them on.
faults:
	SLIM_FAULT_SWEEP=1 $(GO) test -run FaultSweep ./internal/trim/ ./internal/mark/

# The trace-smoke lane (docs/OBSERVABILITY.md): drives a real DMI op
# through the binaries' trace subcommands and the -serve endpoints, and
# checks the resulting causal tree spans the dmi → trim → mark layers and
# exports as valid Chrome trace-event JSON.
trace-smoke:
	$(GO) test -run TraceSmoke ./cmd/trimq/ ./cmd/slimpad/

# The benchmark module's tests (cmd/slimbench/README.md): cmd/slimbench is
# a nested module, so the root `go test ./...` does not reach it. Runs the
# unit tests and a short smoke run of every workload, which ends journal by
# checking that the reopened WAL equals the live store. Module settings as
# in cmd/slimbench/run.sh: no proxy, go.mod resolved in place.
slimbench-test:
	GOFLAGS=-mod=mod GOPROXY=off $(GO) -C cmd/slimbench test ./...

ci: lint build race faults trace-smoke slimbench-test

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# The perf-trajectory lane: runs the full benchmark suite once and writes
# a machine-readable BENCH_<label>.json snapshot (ns/op, B/op, allocs/op,
# custom metrics per benchmark). Non-gating in CI; successive snapshots
# make hot-path regressions diffable.
bench-json:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./... | \
		$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -min 5 -out BENCH_$(BENCH_LABEL).json

# The bench regression radar (docs/OBSERVABILITY.md): groups every
# committed BENCH_*.json snapshot into lanes (the micro-bench lane, the
# slimload scale-* lane) and diffs the two most recent snapshots per
# lane. Report-only by default; set BENCH_THRESHOLD to a percent to make
# it exit 2 on regressions past it. A lane with one snapshot is skipped,
# not an error.
BENCH_THRESHOLD ?= 0
bench-diff:
	$(GO) run ./cmd/benchdiff -threshold $(BENCH_THRESHOLD) -lanes \
		$$(ls BENCH_*.json | sort)

# The scaling lane (docs/OBSERVABILITY.md "Concurrency scoreboard"): the
# slimload workload generator sweeps the op mix at 1/4/16/64 goroutines
# and writes a benchfmt snapshot of throughput and latency quantiles per
# op class per level, diffable with bench-diff like the micro-bench lane.
# The same run populates the lock.* contention families.
bench-scale:
	$(GO) run ./cmd/slimload -duration 2s -goroutines 1,4,16,64 \
		-label scale-$(BENCH_LABEL) -out BENCH_scale-$(BENCH_LABEL).json
