GO ?= go
TIMEOUT ?= 10m

.PHONY: check build vet test race bench-check bench bench-smoke bench-json serve-smoke chaos-smoke cluster-smoke nemesis-smoke workload-smoke churn-smoke

# check is what CI runs: build, vet, full test suite under the race detector.
check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test -timeout $(TIMEOUT) ./...

race:
	$(GO) test -race -timeout $(TIMEOUT) ./...

# bench-check vets and tests the repository benchmark. bench/ is a module of
# its own (BENCHMARK.json, bench/README.md), so none of the targets above
# compile it, yet it imports the internal packages read-only: this is what
# tells a change to ir, core, interp, sim or service that it broke it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -timeout $(TIMEOUT) ./...

# bench runs every committed benchmark at full benchtime: the robustness
# guards at the repo root plus the hot-loop reference-vs-optimized pairs
# (interpreter dispatch, engine scheduler, race detector on/off).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDetRuntimeWatchdog|BenchmarkRaceDetectorOff' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkInterpDispatch|BenchmarkRaceDetector' -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench BenchmarkEngineSweep -benchmem ./internal/sim/

# bench-smoke is the CI variant: one iteration of each hot-loop benchmark,
# enough to catch a broken benchmark or an allocation regression without
# paying full measurement time.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInterpDispatch|BenchmarkRaceDetector' -benchtime 1x -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench BenchmarkEngineSweep -benchtime 1x -benchmem ./internal/sim/

# bench-json regenerates the committed benchmark trajectory (BENCH_PR4.json):
# service latency cold/warm, interpreter MIPS, engine events/sec, and race
# overhead across the five splash workloads. See EXPERIMENTS.md.
bench-json:
	$(GO) run ./cmd/detbench -bench-json BENCH_PR4.json

# serve-smoke proves the service end to end: detserve starts on a random
# loopback port, the quickstart program is submitted twice over HTTP, and
# the second response must be a cache hit with an identical schedule hash
# (every hit is re-executed by the determinism self-check).
serve-smoke:
	$(GO) run ./cmd/detserve -smoke

# chaos-smoke runs the short slice of the crash/restart property: seeded
# SIGTERM-style kills mid-queue with injected worker panics, after which
# every acknowledged job must complete byte-identical to an uninterrupted
# run — zero lost, zero duplicated. The full 20-schedule property runs in
# `make test`; -short keeps this target CI-cheap.
chaos-smoke:
	$(GO) test -run 'TestChaos' -short -count=1 -timeout $(TIMEOUT) ./internal/service/

# nemesis-smoke runs the short slice of the nemesis properties: seeded fault
# schedules (disk faults + post-crash journal scars single-node; asymmetric
# partitions, flaky links and response corruption in the cluster) under which
# no acknowledged job may be silently lost and corrupt bytes may never be
# served. The full ≥20-schedule properties run in `make test`.
nemesis-smoke:
	$(GO) test -run 'TestNemesis|TestJournalInteriorCorruption|TestScrubJournal|TestLoopNet|TestShipBatchCorruption|TestPeerQuarantine|TestPlan|TestEngine|TestFaultFS|TestScar' -short -count=1 -timeout $(TIMEOUT) ./internal/service/ ./internal/cluster/ ./internal/nemesis/

# workload-smoke proves the seeded traffic plane: vet plus the workload and
# idiom suites under the race detector (arrival-process determinism, trace
# round-trip/fuzz-corpus, sync-idiom golden determinism, the cross-topology
# zero-loss property, and bursty admission-control determinism), then a quick
# detload matrix sweep whose table must be byte-identical across -j values.
workload-smoke:
	$(GO) vet ./internal/workload/ ./internal/irgen/ ./cmd/detload/
	$(GO) test -race -short -count=1 -timeout $(TIMEOUT) ./internal/workload/ ./internal/irgen/
	$(GO) run ./cmd/detload -smoke -j 4

# churn-smoke runs the short slice of the dynamic-membership properties
# under the race detector: the seeded join/drain churn chaos property
# (abridged to 4 schedules by -short), the membership view/ring/config unit
# suite, and the join / drain-mid-load / anti-entropy-repair / hedged-fill
# integration tests. The full 20-schedule property runs in `make test` as
# TestChurnChaosProperty; EXPERIMENTS.md commits its table.
churn-smoke:
	$(GO) vet ./internal/cluster/ ./internal/workload/
	$(GO) test -race -short -count=1 -timeout $(TIMEOUT) -run 'TestChurn|TestView|TestMembership|TestClusterConfig|TestJoin|TestDrain|TestAntiEntropy|TestHedgedFill' ./internal/cluster/ ./internal/workload/

# cluster-smoke proves the shard group end to end over real loopback HTTP:
# boot a 3-node cluster (each node with its own journal), sweep jobs across
# it, kill one node mid-sweep, restart it on its journal, and require zero
# lost jobs, cluster-wide schedule-hash identity, and zero divergences. The
# in-memory 20-schedule cluster chaos property (kills + partitions) runs in
# `make test` as TestClusterChaosProperty.
cluster-smoke:
	$(GO) run ./cmd/detserve -cluster-smoke
