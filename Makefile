GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race fuzz fuzz-smoke vet lint check perf-smoke loc chaos wire serve rejoin

all: build test

# The second and third lines keep the portable row kernels compiling and
# vetting where they are the only implementation (internal/tensor has amd64
# assembly; see DESIGN.md §11). Stdlib cross-compile: needs no network.
build:
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/gnn/

# The second to fourth lines run the partitioner's micro-benchmarks, the
# planner's on setup-orkut16's shape and the ablation set once each
# (ungated) so the ones DESIGN.md §5 and §17.3 cite keep compiling and
# running.
test:
	$(GO) test ./...
	$(GO) test -run '^$$' -bench 'Coarsen|Hierarchical16|KWay8' -benchtime 1x ./internal/partition/
	$(GO) test -run '^$$' -bench 'PlanSPST/orkut-dual16' -benchtime 1x ./internal/core/
	$(GO) test -run '^$$' -bench 'Ablation' -benchtime 1x .

# Race tier: the runtime is one goroutine per GPU over shared transports,
# so every test also runs under the race detector. The set-up path's
# concurrency (machines, devices, plan beside local graphs) gets ten more
# rounds of its schedule-independence tests, since the detector only sees
# the interleavings a run happens to execute, and of the coarsening
# exactness tests, whose scratch rows every level shares.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'AcrossGOMAXPROCS|TestFor|Coarsen' ./internal/par/ ./internal/partition/ .

vet:
	$(GO) vet ./...

# Lint tier: gofmt hygiene plus the project's own analyzer suite (dgclvet,
# internal/analysis) enforcing the determinism/concurrency/error invariants
# DESIGN.md §9/§14 document. Exit 1 = findings, exit 2 = load failure; the
# ignores audit then fails on any //dgclvet:ignore naming a nonexistent
# analyzer or missing a justification.
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/dgclvet ./...
	$(GO) run ./cmd/dgclvet -ignores

# Perf-smoke tier: the repo's one benchmark (cmd/dgclperf, BENCHMARK.json) at
# smoke length, ~20 s: all seven workloads, every in-run bit-identity gate
# (losses, digests, served rows), every declared metric present. It checks
# that the benchmark runs whole, not its numbers: one run on a shared box
# cannot resolve a change under the metrics' 25% bounds, so numbers are
# compared on alternating parent/change pairs (cmd/dgclperf/README.md), never
# against a stored file. The `go test -bench` micro-benchmarks remain as
# ungated developer tools.
perf-smoke:
	$(GO) run ./cmd/dgclperf -smoke

# Lines of Go per package, non-test and test, with totals for the tree and
# for the tree outside the benchmark (cmd/dgclperf) — the table CHANGES.md
# reports before/after when a PR's aim is less code.
loc:
	@for d in $$(find . -name '*.go' | sed 's|/[^/]*$$||' | sort -u); do \
		printf '%-58s %6d %6d\n' $$d \
			$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) \
			$$(find $$d -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
	done | awk '{ print; nt += $$2; t += $$3; if ($$1 != "./cmd/dgclperf") { ont += $$2; ot += $$3 } } \
		END { printf "%-58s %6d %6d\n%-58s %6d %6d\n", "total", nt, t, "total outside cmd/dgclperf", ont, ot }'

# Chaos tier (DESIGN.md §10): the failure-handling battery under the race
# detector — fault-injection chaos, fail-stop crash/recovery, checkpoint
# corruption fallback, and the bit-identical resume property.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Crash|Health|Recover|Resume|Corrupt|Degrade|Without|Checkpoint|Snapshot|Store' \
		./internal/runtime/ ./internal/checkpoint/ ./internal/topology/ ./internal/gnn/ .

# Wire tier: the transport conformance battery (one table over channels,
# decorators, and sockets), the socket chaos/crash suite, the credit window
# refilling once links go idle, and the multi-process worker protocol, all
# under the race detector.
wire:
	$(GO) test -race -count=1 \
		-run 'Conformance|Fabric|Frame|PlanDigest|Handshake|Exchanges|SteadyState|Wire|Credit|Distributed|SplitRanks|Coordinator|OSProcesses' \
		./internal/comm/wire/ ./internal/runtime/ ./internal/worker/ .

# Serve tier (DESIGN.md §13): the embedding-serving battery under the race
# detector — single-flight waiters, the waiter bound and Close, memo version
# properties, bitwise equivalence with the direct forward, admission
# shedding, the DGS1 protocol and listener shutdown, the mid-load
# device-kill failover, and the latency histogram it reports from. The
# interleaving tests then run five more times, for more than one schedule.
serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/obs/
	$(GO) test -race -count=5 -run 'Version|Flight|Waiter|Close' ./internal/serve/

# Rejoin tier (DESIGN.md §15): the supervised-membership battery under the
# race detector — lease/heartbeat/backoff timing on injected clocks, control
# envelope validation, generation fencing, and the process-kill/restart
# chaos suite (real dgclworker subprocesses, SIGKILL + SIGTERM) with the
# degrade-onto-survivors path (the kill/restart test logs its
# detection→resume time; add -v to see it).
rejoin:
	$(GO) test -race -count=1 \
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
