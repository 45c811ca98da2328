# Targets mirror .github/workflows/ci.yml step for step, so local runs
# and CI stay identical.

# bash for pipefail in the bench target; /bin/sh (dash) lacks it.
SHELL := /bin/bash

GO ?= go

.PHONY: all build test vet lint fmt fmt-check cover bench bench-check bench-alloc bench-baseline bench-speedup bench-ab race-parallel race-parallel-4 golden-gogcoff telemetry-check dist-chaos ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race -shuffle on ./...

vet:
	$(GO) vet ./...

# lint mirrors CI's staticcheck step. The tool needs network access to
# install, so offline checkouts degrade to a skip message instead of a
# failure — CI always runs it.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not on PATH; skipped (CI installs and runs it)"; \
	fi

# cover mirrors CI's coverage step: the race-tested coverage profile
# plus the total, which CI also prints into the job summary and uploads
# as an artifact.
cover:
	$(GO) test -race -shuffle on -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

bench:
	set -o pipefail; $(GO) test -json -bench=. -benchtime=1x -run='^$$' ./... | tee bench-smoke.json

# bench-check is the tracked perf-regression gate: it re-runs the
# deterministic PerfGate benchmarks and fails when any gated work
# counter regressed >15% against the committed bench-baseline.json.
bench-check:
	set -o pipefail; $(GO) test -json -bench=PerfGate -benchtime=1x -run='^$$' . | tee bench-gate.json | $(GO) run ./cmd/benchgate -baseline bench-baseline.json

# bench-alloc runs the same deterministic gate with -benchmem, so the
# comparison artifact (bench-alloc.json) additionally carries Go's
# allocs/op and B/op columns next to the gated steady-state
# allocs/packet and bytes/packet metrics. The artifact is written by
# tee before benchgate judges it, so it survives a failing gate — CI
# uploads it either way.
bench-alloc:
	set -o pipefail; $(GO) test -json -bench=PerfGate -benchmem -benchtime=1x -run='^$$' . | tee bench-alloc.json | $(GO) run ./cmd/benchgate -baseline bench-baseline.json

# bench-baseline refreshes the committed baseline after an intentional
# perf change; commit the resulting bench-baseline.json.
bench-baseline:
	set -o pipefail; $(GO) test -json -bench=PerfGate -benchtime=1x -run='^$$' . | $(GO) run ./cmd/benchgate -baseline bench-baseline.json -update

# bench-speedup re-runs just the domain-decomposed knee point and keeps
# its raw output (bench-speedup.json): the 'speedup' metric there is the
# measured intra-scenario wall-clock gain of -step-parallel over the
# serial engine on THIS host (report-only — it scales with core count,
# so it is never gated). The run also appends one labeled record to the
# tracked BENCH_speedup.json history (label via SPEEDUP_LABEL, default
# "local"), so multi-core hosts accumulate a per-commit speedup
# trajectory; commit the file when the record is worth keeping. CI
# uploads both next to bench-alloc.json.
bench-speedup:
	set -o pipefail; $(GO) test -json -bench='PerfGate/knee-parallel' -benchtime=1x -run='^$$' . \
		| tee bench-speedup.json \
		| $(GO) run ./cmd/benchgate -speedup-log BENCH_speedup.json -label "$${SPEEDUP_LABEL:-local}"

# bench-ab is the paired wall-clock comparison a speed claim rests on:
# ten alternating pairs of one BENCHMARK.json workload between BASE (a
# git ref, exported to a temporary directory) and the working tree, with
# each side's median and quartiles and the pair win count, then the
# no-regression verdict for every end_to_end metric of BENCHMARK.json
# against its bound.
#	make bench-ab BASE=HEAD~1 WORKLOAD=knee.serial
PAIRS ?= 10
METRIC ?= sim_cycles_per_s
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab BASE=<ref> WORKLOAD=<name> [PAIRS=10] [METRIC=sim_cycles_per_s]" >&2; exit 2; }
	bash tools/bench-ab.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(METRIC)"

# golden-gogcoff re-runs the golden matrix's knee points (every
# topology and switching mode at the near-saturation load) with the
# garbage collector disabled. The handle-based arena keeps freed packet
# records reachable from live slices, so a use-after-recycle that GC
# timing might otherwise mask (or crash on) instead shows up here as a
# result whose digest differs from the frozen reference in
# internal/core/testdata/reference-golden.json, with nothing collected
# or moved for the whole run.
golden-gogcoff:
	GOGC=off $(GO) test -count=1 -run 'TestGoldenCrossEngineMatrix/.*/knee' ./internal/core/

# race-parallel runs the parallel-engine golden/fuzz suites under the
# race detector with their bounded cycle counts — the determinism AND
# memory-model proof of the domain-decomposed Step (its warm-workspace
# test also checks the frozen reference digest). The Credit pattern
# picks up the credit-snapshot fuzz seeds and the zero-credit storm
# alongside the Parallel-named goldens.
race-parallel:
	$(GO) test -race -run 'Parallel|Credit' ./internal/noc/ ./internal/core/

# race-parallel-4 re-runs the same matrix with GOMAXPROCS pinned to 4:
# on a multi-core host the fused engine's workers genuinely race the
# coordinator (spinning on the barrier instead of parking), which a
# single-P run cannot exercise.
race-parallel-4:
	GOMAXPROCS=4 $(GO) test -race -run 'Parallel|Credit' ./internal/noc/ ./internal/core/

# telemetry-check proves the FTDC-style capture end to end on every
# push: a bounded knee run (the PerfGate knee workload: mesh-8x8
# uniform at 90% of the 0.5 flits/cycle/source analytic saturation
# bound, about 1.6x past the measured saturation of about 0.28) with
# telemetry on, decoded and diffed against the committed
# golden summary, then re-encoded byte-for-byte by noctsd roundtrip.
telemetry-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/nocsim -topo mesh -n 64 -traffic uniform -flitrate 0.45 \
		-warmup 300 -cycles 3000 -seed 1 -telemetry "$$tmp/knee.tsd" >/dev/null; \
	$(GO) run ./cmd/noctsd summary "$$tmp/knee.tsd" > "$$tmp/summary.txt"; \
	diff -u testdata/telemetry-knee-summary.golden "$$tmp/summary.txt"; \
	$(GO) run ./cmd/noctsd roundtrip "$$tmp/knee.tsd"

# dist-chaos runs the distributed-coordinator supervision suite twice
# under the race detector: real subprocess workers SIGKILLed mid-shard,
# hung past the heartbeat deadline and emitting torn shard files, with
# the merged stream checked byte-for-byte against the serial golden.
# Coordinator event logs land in dist-logs/ (appended across runs), the
# artifact CI uploads when this fails.
# DIST_LOG_DIR is absolute: the tests run with the package directory
# as cwd, but the artifact path must be repo-relative for CI's upload.
dist-chaos:
	DIST_LOG_DIR=$(CURDIR)/dist-logs $(GO) test -race -count=2 -timeout 8m ./internal/dist/

# ci runs bench-alloc rather than bench-check: it is the same gate
# against the same baseline, with -benchmem columns added for free.
# cover re-runs the race suite with -coverprofile, exactly as CI's
# coverage step does.
ci: build vet lint fmt-check cover race-parallel race-parallel-4 golden-gogcoff telemetry-check dist-chaos bench bench-alloc bench-speedup
