GO ?= go
TIMEOUT ?= 10m

.PHONY: check build vet fmt-check test race bench-check bench bench-smoke serve-smoke workload-smoke loc loc-check deadcode

# check is what CI runs: build, vet, formatting, full test suite under the
# race detector.
check: build vet fmt-check race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails, naming the files, when gofmt would rewrite any Go file in
# the repository (bench/ included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

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
# (interpreter dispatch under DetLock's and Kendo's clocks, engine
# scheduler, race detector on/off) and the service's result-cache hit on a
# 1 kB and a 36 kB program, which must read alike: a hit costs the
# request's configuration, not its text.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkDetRuntimeWatchdog|BenchmarkRaceDetectorOff' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkInterpDispatch|BenchmarkRaceDetector' -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench BenchmarkEngineSweep -benchmem ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkDoHit -benchmem ./internal/service/

# bench-smoke is the CI variant: one iteration of each hot-loop benchmark
# (a thousand cache hits, so the two sizes' ns/op can be read against each
# other, 4 allocs/op each since a hit reads its result key from its entry's
# memo; BenchmarkDoHit/seeds=16 cycles sixteen seeds of the 1 kB program,
# one memo slot each, and should read as 1kB does, seeds=32 two seeds a
# slot, so every hit digests its key: the memo's collision path; the
# BenchmarkDoHit pattern also selects BenchmarkDoHitParallel, the
# same 1 kB hit from every processor at once, and BenchmarkDoHitJournaled, the
# same hit on a journaled service, whose syncs/op is 1 / JournalFsyncEvery =
# 0.0625, one record per hit, and whose journal-B/op is the log's growth per
# hit through Close, about 134 bytes: a record naming the hit's claim; its
# deadlines=8 case cycles eight deadlines on one entry, so each hit digests
# its claim),
# enough to catch a broken benchmark or an allocation regression without
# paying full measurement time.
# BenchmarkRaceOverheadThreads prints
# the bytes and objects of one detected run per program and thread count
# (radiosity/threads=4/detector=true is the line TestRaceRunAllocBudget bounds).
# BenchmarkFillRoundTrip is one peer fill between two LoopNet nodes: ns, bytes
# and allocations per fill, and the reply's size on the wire.
# BenchmarkServeHit is BenchmarkDoHit's two programs through detserve's
# mounted handler: what the HTTP front end adds around a hit, per request and
# per body byte.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkInterpDispatch|BenchmarkRaceDetector' -benchtime 1x -benchmem ./internal/interp/
	$(GO) test -run '^$$' -bench BenchmarkRaceOverheadThreads -benchtime 1x -benchmem ./internal/harness/
	$(GO) test -run '^$$' -bench BenchmarkEngineSweep -benchtime 1x -benchmem ./internal/sim/
	$(GO) test -run '^$$' -bench BenchmarkDoHit -benchtime 1000x -benchmem ./internal/service/
	$(GO) test -run '^$$' -bench BenchmarkFillRoundTrip -benchtime 1x -benchmem ./internal/cluster/
	$(GO) test -run '^$$' -bench BenchmarkServeHit -benchtime 1000x -benchmem ./cmd/detserve/

# serve-smoke proves detserve end to end over real loopback HTTP (the tests in
# cmd/detserve, also part of `make test`): the real server answers a repeated
# submission from the result cache with an identical schedule hash and drains
# cleanly, and a 3-node cluster with per-node journals loses no job and sees
# no divergence when one node is killed mid-sweep and restarted.
serve-smoke:
	$(GO) test -count=1 -timeout $(TIMEOUT) ./cmd/detserve/

# workload-smoke runs a quick detload matrix sweep whose table must be
# byte-identical across -j values (the suites behind it run in `make race`).
workload-smoke:
	$(GO) run ./cmd/detload -smoke -j 4

# deadcode runs the dead-export and unset-option guards (deadcode_test.go,
# also part of `make test`) verbosely. The first names every exported
# identifier under internal/ that no non-test file of the module or of
# bench/, and no other package's test, references — a method of a type the
# root package aliases only when no file at all, test or not, references it
# — and every export of the root package that no non-test file under
# examples/ or cmd/ or in bench/ names, nor the signature of an exported
# function one does, its det and diag aliases excepted. The second names
# every exported field of an internal Config, …Config or Options struct that
# no non-test file of the module or of bench/ sets, its own package's
# defaulting aside — a test is not a caller — the types the root package
# aliases excepted, and prints how many such fields there are. Each then
# prints the allowlist of those that stay, with reasons.
deadcode:
	$(GO) test -count=1 -run 'TestNoDeadExports|TestDeadExportsFixture|TestNoUnsetOptions|TestUnsetOptionsFixture' -v .

# loc prints the non-test Go line count ROADMAP's size bar is stated in.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l

# loc-check fails when that count exceeds LOC_CEILING, the count of the last
# change that moved it. A change that needs more lines raises the number in
# its own diff and says why; one that frees lines lowers it.
# Last moved by -65, for keeping one run path: internal/sim's engine.go
# (-22: Program.Step writes into the engine's slot, StepperInto and the
# per-thread assertion gone), internal/interp's interp.go (-9: Step is the
# old StepInto), internal/harness's prep.go (-28: every Runner prepares
# through its caches, so the uncached branches and the 1024-entry wipes
# went) and harness.go (-1), internal/det's mutex.go (-5: two fields
# nothing read). Earlier moves are in CHANGES.md and the git log.
LOC_CEILING = 23712
loc-check:
	@n=$$($(MAKE) -s loc); echo "$$n non-test Go lines (ceiling $(LOC_CEILING))"; test $$n -le $(LOC_CEILING)
