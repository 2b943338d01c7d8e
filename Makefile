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
# Last moved by -23, for splitting Result into its deterministic Outcome and
# a delivery annex: internal/service's job.go (+10: the Outcome type, its
# doc, and Core as its method), verify.go (-9: the claim type and claimOf
# gone, mismatch and selfConsistent Outcome methods), cache.go (-8: a result
# entry holds an Outcome, so entryFromPeer zeroes no annex and exportEntry
# wraps it), execute.go (-6: simulate builds an Outcome, assemble wraps it),
# service.go (+4: Open queues the recovered jobs that fit before its workers
# start), journal.go, clusterapi.go and drain.go (0); internal/sim's
# engine.go and internal/det's runtime.go (-7 each: maxI64 and maxInt64 are
# the builtin max).
# Moved before that by +161, for naming a program once: internal/service's cache.go
# (+138: the program table — the program, its lazily computed journal id,
# its lookups by the string's identity, by content and by the front end's
# last spelling, entries filed under a *program, and the LRU's eviction hook
# that lets a program go with its last entry; less the text-keyed instrKey),
# verify.go (+9: a recovery check that reproduces its claim keeps its
# recompute in the result cache), execute.go (+7: the job's program handed
# to instrumented), submit.go (+6: the job's program made before its first
# record, newProgram's refusal passed through), json.go (+2: the decoder
# resolving through the table instead of the source memo), job.go (-1) and
# service.go (-1: the memo's field), journal.go (+1: appendJob's comment
# naming the program) and clusterapi.go (0: the program's id in place of a
# digest per record). The merge replaced two small structures (the memo and
# the text key) with one that needs three indexes to keep a hit and a
# repeated HTTP literal free of passes over the text, so it did not free
# lines as hoped.
# Moved before that by -50, for replaying the journal in one pass and running a
# module on the simulator one way: internal/service's journal.go (-44:
# replayJobs, the texts and claims maps and programLocked gone, holdLocked
# appending a program or claim record unless held has its id), scrub.go (+6:
# the fold into jobs inside the scan, in place of its seen / done maps and
# record slice), execute.go (-6), the root's detlock.go (-11) and
# internal/harness's harness.go (-9: each calls interp.Run), internal/interp's
# interp.go (+14: Run); internal/cluster's ship.go and internal/service's
# verify.go (0: comments and the snapshot check reading the scan's jobs).
# Moved before that by +209, for journaling a clean hit by its claim and keeping
# retention in a ring: internal/service's journal.go (+107: claim records,
# appendHit, the prologue appendJob now shares as reserveLocked and
# programLocked, claimLocked, claimID and the contract comments), scrub.go
# (+64: the claim rules, resolveText shared by claims and requests,
# blankClaimID), cache.go (+19: the one-request claim memo on resultEntry),
# submit.go (+17: journalHit; the retention ring of ids) and service.go (+2:
# the ring's fields).
# Moved before that by +148, for remembering result keys and decoding a result in
# one pass: internal/service's cache.go (+60: simConfig, the 16-slot memo on
# instrEntry with its slot pick and lookup, digestKey taking simConfig, the
# entry and determinism mode kept on the entry) and json.go (+88: the
# one-pass Result decode — reqDecoder.result's field walk and strs — ahead
# of decodeJSON, the encoding/json path it declines to).
# Moved before that by -54, for folding the options only tests set:
# internal/workload's arrival.go (-51: BurstFactor, Curve and Clients as
# constants with their range checks, Trace with ShapeTrace) and driver.go
# (-23: Window as a constant, Pace with MaxPaceSkewUS), internal/cluster's
# node.go and steal.go (-2: StealBatch), internal/service's service.go and
# retry.go (+2: RetrySeed), internal/det's runtime.go (-3: NewRand); with
# the refusal of program text that is not valid UTF-8 in internal/service's
# job.go, submit.go and execute.go (+23). Moved before that by +201, for writing journal records without reflection and
# decoding a result alike on 32 and 64 bits: internal/service's json.go
# (+141 for the writer: the string escaper, jsonWriter and the Request and
# Result field walkers, less AppendJSONIndent's own field list and
# plainString; +18 for Result.UnmarshalJSON) and journal.go (+21:
# journalRecord.writeJSON and the header's note, less the encoder, its
# buffer and its record), internal/harness's harness.go (+21:
# OverheadRow.UnmarshalJSON). The writer is +162 of it, the two 64-bit
# decodes +39. Moved before that by -204, for deleting the root package's service, cluster and
# workload re-exports nothing used: service.go (-89), cluster.go (-80),
# workload.go (-73), detlock.go (-27: the four service-only error aliases,
# RacePolicy, which the root rule flagged, a dead branch, and one helper
# for its configuration misuses), internal/cluster's ship.go (-13:
# Takeover) and node.go (-1), internal/service's service.go (-1: comments
# naming the facade); with the examples' run(w) for their goldens (+27 over
# five; replay's equal is slices.Equal), internal/interp's interp.go and
# decode.go (+27: the spawn budget), internal/service's json.go (+20:
# threads read as 64 bits on every word size) and internal/bin's bin.go
# (+6: Narrow). Moved before that by +35:
# internal/service's journal.go (+10: the pending-buffer
# bound and settleLocked's commit-in-flight case, with the contract comments
# they change), internal/ir's verify.go (+13: the global size bound and word
# budget) and cmd/detbench's main.go (+12: run with its own flag set and
# writers, as detlock and detviz). Moved before that by -109, for folding
# the options nothing sets into constants:
# internal/interp's interp.go (-19) and decode.go (+3: the miss model,
# Kendo interrupt cost and jitter amplitude, their mirrors and the miss
# model's disable branch; the miss penalty is added after its branch, with
# a comment on why, so the dispatch head keeps its 9 stack stores),
# internal/sim's engine.go (-10: the sync costs only tests set, the barrier
# count and the cancel stride), internal/ir's cost.go (-8: three costs
# nothing read), internal/core's options.go (-19) and pipeline.go (-1: the
# admission thresholds and Options.Defaults), internal/workload's
# arrival.go (-10), driver.go (-4) and matrix.go (-5: the shape
# parameters, the remote stride and the service sizes nothing set);
# internal/splash's kernels.go (-33: one kernel entry and diamond cond
# builder) and internal/harness's tables.go (-16) and harness.go (+3: one
# grid runner for both tables); internal/service's job.go (+10: the
# thread-count bound).
LOC_CEILING = 23777
loc-check:
	@n=$$($(MAKE) -s loc); echo "$$n non-test Go lines (ceiling $(LOC_CEILING))"; test $$n -le $(LOC_CEILING)
