GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race fuzz fuzz-smoke vet lint check bench-smoke chaos wire serve bench-serve rejoin

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race tier: the runtime is one goroutine per GPU over shared transports,
# so every test also runs under the race detector. The set-up path's
# concurrency (machines, devices, plan beside local graphs) gets ten more
# rounds of its schedule-independence tests, since the detector only sees
# the interleavings a run happens to execute.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'AcrossGOMAXPROCS|TestFor' ./internal/par/ ./internal/partition/ .

vet:
	$(GO) vet ./...

# Lint tier: gofmt hygiene plus the project's own analyzer suite (dgclvet,
# internal/analysis) enforcing the determinism/concurrency/error invariants
# DESIGN.md §9/§14 document. Exit 1 = findings, exit 2 = load failure.
# Findings matching the committed baseline (kept empty — the tree is clean)
# are reported but do not fail; the ignores audit then fails on any
# //dgclvet:ignore naming a nonexistent analyzer or missing a justification.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/dgclvet -baseline .github/dgclvet-baseline.json ./...
	$(GO) run ./cmd/dgclvet -ignores

# Bench-smoke tier: three iterations of the set-up benchmarks (every planner
# configuration — serial, parallel waves, warm cache — and the k-way and
# hierarchical partitioners) and of the runtime epoch hot-path benchmarks
# (DESIGN.md §11/§16; overlap-off and overlap-on variants both match the
# unanchored -bench regex), recorded together as the "current" run of
# BENCH_runtime.json; the "baseline" run is the frozen pre-compile
# implementation. dgclbenchdiff prints the delta and, with -fail-over,
# exits nonzero if any shared benchmark regressed past 25% so the smoke
# gates rather than just reports. The threshold is deliberately loose:
# 3-iteration runs on shared CI boxes are noisy, and the frozen baseline
# leaves real headroom below it.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkPlanSPST|BenchmarkPlanCacheWarm|BenchmarkKWay8|BenchmarkHierarchical16|BenchmarkAllgather|BenchmarkEpoch|BenchmarkWire' \
		-benchtime 3x -json ./internal/core/ ./internal/partition/ ./internal/runtime/ ./internal/comm/wire/ \
		| $(GO) run ./cmd/dgclbenchdiff -record BENCH_runtime.json -label current
	$(GO) run ./cmd/dgclbenchdiff -runs baseline,current -fail-over 25 BENCH_runtime.json

# Chaos tier (DESIGN.md §10): the failure-handling battery under the race
# detector — fault-injection chaos, fail-stop crash/recovery, checkpoint
# corruption fallback, and the bit-identical resume property.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Crash|Health|Recover|Resume|Corrupt|Degrade|Without|Checkpoint|Snapshot|Store' \
		./internal/runtime/ ./internal/checkpoint/ ./internal/topology/ ./internal/gnn/ .

# Wire tier: the transport conformance battery (one table over channels,
# decorators, and sockets), the socket chaos/crash suite, and the
# multi-process worker protocol, all under the race detector.
wire:
	$(GO) test -race -count=1 \
		-run 'Conformance|Fabric|Frame|PlanDigest|Handshake|Exchanges|SteadyState|Wire|Distributed|SplitRanks|Coordinator|OSProcesses' \
		./internal/comm/wire/ ./internal/runtime/ ./internal/worker/ .

# Serve tier (DESIGN.md §13): the embedding-serving battery under the race
# detector — batcher cutoffs, cache/version staleness properties, bitwise
# equivalence with the direct forward, admission shedding, the DGS1 protocol,
# and the mid-load device-kill failover.
serve:
	$(GO) test -race -count=1 ./internal/serve/

# Bench-serve smoke: the Zipf load driver against an in-process server at two
# QPS points, recorded as the "current" run of BENCH_serve.json (the
# "baseline" run is frozen), then the delta table.
bench-serve:
	$(GO) run ./cmd/dgclloadgen -selfserve -qps 200,800 -requests 2000 \
		-record BENCH_serve.json -label current
	$(GO) run ./cmd/dgclbenchdiff -runs baseline,current BENCH_serve.json

# Rejoin tier (DESIGN.md §15): the supervised-membership battery under the
# race detector — lease/heartbeat/backoff timing on injected clocks, control
# envelope validation, generation fencing, and the process-kill/restart
# chaos suite (real dgclworker subprocesses, SIGKILL + SIGTERM) with the
# degrade-onto-survivors path. DGCL_RECORD_RECOVERY=1 makes the kill/restart
# test record its detection→resume time into the "recovery" run of
# BENCH_runtime.json.
rejoin:
	DGCL_RECORD_RECOVERY=1 $(GO) test -race -count=1 \
		-run 'Membership|Lease|Backoff|Rejoin|Drain|SplitRanks|DecodeCtrl|ProtocolError|Mismatch|Typed|OSProcess|Health|Epochs|LoadEpoch' \
		./internal/worker/ ./internal/runtime/ ./internal/checkpoint/

# Short fuzz pass over every fuzz target (plan decode + round-trip, the
# untrusted checkpoint decode paths, the wire frame decoder, the serve
# request decoder, and the worker control-plane envelope decoder).
fuzz:
	$(GO) test -fuzz=FuzzReadPlanJSON -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzPlanJSONRoundTrip -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz=FuzzDecodeManifest -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=$(FUZZTIME) ./internal/comm/wire/
	$(GO) test -fuzz=FuzzDecodeServeRequest -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzDecodeCtrlMsg -fuzztime=$(FUZZTIME) ./internal/worker/

# CI-sized fuzz pass: same targets, 10 seconds each.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

check: vet lint build test race chaos wire serve rejoin
