package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/estimates"
	"repro/internal/harness"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced pass replays a sample of the workload's own requests through
// each layer's public functions and through each way of deploying the
// service, timing every call from the benchmark's side. Every workload
// reports every per-layer metric: the numbers say what that layer costs on
// this workload's inputs, whether or not the workload's timed phase uses it.
const (
	traceSample   = 48   // distinct requests replayed one at a time
	traceJobs     = 1000 // jobs of the workload's stream replayed on each deployment
	racePairsMin  = 20   // detector on/off pairs, alternating
	hitsMin       = 200  // timed hits per deployment: a small pool is passed over repeatedly
	controlRounds = 20   // gossip and probe rounds timed
)

type tracer struct {
	e   *env
	p   *prepared
	rec *recorder
	m   *measured

	costs *ir.CostModel
	est   *estimates.Table
}

func tracedPass(e *env, p *prepared, seconds float64, rec *recorder) (*measured, error) {
	t := &tracer{e: e, p: p, rec: rec, m: &measured{samples: map[string][]float64{}},
		costs: ir.DefaultCostModel(), est: estimates.DefaultTable()}
	t.m.add("bench.prep_s", p.prepS)
	t.m.add("workload.synth_s", p.s.synthS)
	t.irgen()

	sample := t.sample()
	steps := []struct {
		name string
		run  func([]int) error
	}{
		{"layers", t.layers},
		{"bare service", t.bare},
		{"journal", t.journal},
		{"cluster", t.cluster},
		{"detserve", t.detserve},
	}
	for _, s := range steps {
		if err := s.run(sample); err != nil {
			return nil, fmt.Errorf("%s: traced pass, %s: %w", p.name, s.name, err)
		}
	}
	if err := t.overhead(seconds / 2); err != nil {
		return nil, err
	}
	return t.m, nil
}

// check counts one verified job.
func (t *tracer) check(idx int, res *service.Result, err error) {
	t.m.attempted++
	if err != nil || coreOf(res) != t.p.s.Want[idx] {
		t.m.failed++
	}
}

// hitPasses is how many passes over the sample give hitsMin timed hits.
func hitPasses(sample []int) int { return (hitsMin + len(sample) - 1) / len(sample) }

// sample picks the first traceSample distinct requests of the stream.
func (t *tracer) sample() []int {
	var out []int
	seen := map[int]bool{}
	for _, idx := range t.order(len(t.p.s.Order)) {
		if !seen[idx] {
			seen[idx] = true
			if out = append(out, idx); len(out) == traceSample {
				break
			}
		}
	}
	return out
}

// order is the first n jobs of the workload's stream as service requests. A
// grid workload's stream is its service-expressible cells, repeated.
func (t *tracer) order(n int) []int {
	s := t.p.s
	if s.Cells == nil {
		return s.Order[:min(n, len(s.Order))]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i % len(s.Reqs)
	}
	return out
}

// irgen times the program generator on its own, so its cost is never taken
// for the system's.
func (t *tracer) irgen() {
	cfg := irgen.Default()
	cfg.Threads, cfg.WithSync = simThreads, true
	for seed := uint64(1); seed <= 32; seed++ {
		_, us := t.rec.timed(int(seed), "irgen.generate", -1, func() { _ = irgen.Generate(seed, cfg).String() })
		t.m.add("irgen.gen_us", us)
	}
}

// layers replays each sampled request the way service.execute runs a miss:
// a real miss on a bare service is the parent span, and the calls it makes
// into ir, core, interp, sim and trace are repeated here as its children.
// What the parent took beyond its children is the service's own time.
func (t *tracer) layers(sample []int) error {
	svc := service.New(service.Config{Workers: clients})
	defer func() {
		ctx, cancel := closeCtx()
		defer cancel()
		svc.Close(ctx)
	}()
	pairs := (racePairsMin + len(sample) - 1) / len(sample)
	first := len(t.rec.spans) // earlier workloads' spans have no part in these self times
	var parents []int
	for job, idx := range sample {
		req := t.p.s.Reqs[idx]
		var res *service.Result
		var err error
		parent, us := t.rec.timed(job, "service.do_miss", -1, func() { res, err = svc.Do(context.Background(), req) })
		t.check(idx, res, err)
		t.m.add("service.do_miss_us", us)
		parents = append(parents, parent)
		if err := t.replay(job, parent, req, pairs); err != nil {
			return err
		}
		_, us = t.rec.timed(job, "service.key", -1, func() { _, err = svc.KeyFor(req) })
		if err != nil {
			return err
		}
		t.m.add("service.key_us", us)
		for i := 0; i < hitPasses(sample); i++ {
			_, us = t.rec.timed(job, "service.do_hit", -1, func() { res, err = svc.Do(context.Background(), req) })
			t.check(idx, res, err)
			t.m.add("service.do_hit_us", us)
		}
	}
	self := selfTimes(t.rec.spans[first:])
	for _, id := range parents {
		t.m.add("service.self_us", float64(self[id])/1e3)
	}
	return nil
}

// replay runs one request through the layers directly, as children of parent.
func (t *tracer) replay(job, parent int, req service.Request, racePairs int) error {
	req = withDefaults(req)
	span := func(layer, metric string, fn func()) {
		_, us := t.rec.timed(job, layer, parent, fn)
		t.m.add(metric, us)
	}
	t.m.add("ir.src_kb", float64(len(req.Source))/1024)

	var raw *ir.Module
	var err error
	span("ir.parse", "ir.parse_us", func() { raw, err = ir.Parse(req.Source) })
	if err != nil {
		return err
	}
	mod := raw
	if !req.Baseline {
		span("ir.clone", "ir.clone_us", func() { mod = raw.Clone() })
		opt := harness.PresetByKey(req.Preset)
		opt.Roots = []string{req.Entry}
		_, _ = t.rec.timed(job, "core.instrument", parent, func() { _, err = core.Instrument(mod, t.costs, t.est, opt) })
		if err != nil {
			return err
		}
	}
	span("ir.print", "ir.print_us", func() { _ = mod.String() })
	var run *ir.Module
	span("ir.clone", "ir.clone_us", func() { run = mod.Clone() })

	simulate := func(race bool, layerNew, layerRun string, par int) (mach *interp.Machine, stats *sim.Stats, newUS, runUS float64, err error) {
		cfg := interp.Config{Module: run, Costs: t.costs, Estimates: t.est,
			Threads: req.Threads, Entry: req.Entry, JitterSeed: req.PerturbSeed}
		if race {
			cfg.Race = &interp.RaceConfig{Policy: interp.RaceFailFast}
		}
		var threads []*interp.Thread
		_, newUS = t.rec.timed(job, layerNew, par, func() { mach, threads, err = interp.NewMachine(cfg) })
		if err != nil {
			return
		}
		policy := sim.PolicyDet
		if req.Baseline {
			policy = sim.PolicyFCFS
		}
		eng := sim.New(sim.Config{Policy: policy, NumLocks: run.NumLocks, NumBarriers: run.NumBars,
			RecordTrace: true, Observer: mach.Observer()}, interp.Programs(threads))
		_, runUS = t.rec.timed(job, layerRun, par, func() { stats, err = eng.Run() })
		return
	}
	mach, stats, newUS, runUS, err := simulate(req.Race, "interp.new_machine", "sim.run", parent)
	if err != nil {
		return err
	}
	t.m.add("interp.new_machine_us", newUS)
	t.m.add("sim.run_us", runUS)
	t.m.add("interp.instrs_per_job", float64(mach.InstrsExecuted))
	t.m.add("sim.steps_per_job", float64(stats.Steps))
	t.m.add("interp.mips", float64(mach.InstrsExecuted)/runUS)
	t.m.add("sim.events_per_s", float64(stats.Steps)/runUS*1e6)
	span("trace.hash", "trace.hash_us", func() {
		sched := trace.FromSim(stats.Trace)
		_ = sched.Hash()
		t.m.add("trace.sched_len", float64(sched.Len()))
	})

	// Layer probes beyond the job's own path: the cost of each preset, and
	// of the race detector. They are spans of the job but children of none.
	t.m.add("core.blocks_in", float64(blocks(raw)))
	for _, key := range harness.PresetKeys() {
		m := raw.Clone()
		opt := harness.PresetByKey(key)
		opt.Roots = []string{req.Entry}
		var res *core.Result
		_, us := t.rec.timed(job, "core."+key, -1, func() { res, err = core.Instrument(m, t.costs, t.est, opt) })
		if err != nil {
			return err
		}
		t.m.add("core."+strings.ToLower(key)+"_us", us)
		if key == "all" {
			t.m.add("core.blocks_out", float64(blocks(m)))
			t.m.add("core.clockable_funcs", float64(len(res.Clockable)))
		}
	}
	if req.Baseline {
		return nil // the detector needs the deterministic pipeline
	}
	for i := 0; i < racePairs; i++ {
		_, _, onNew, onRun, err := simulate(true, "race.new_machine", "race.run", -1)
		if err != nil {
			return nil // a racy generated program: fail-fast ends the run early, so it times nothing
		}
		_, _, offNew, offRun, err := simulate(false, "race.off.new_machine", "race.off.run", -1)
		if err != nil {
			return err
		}
		t.m.add("race.run_us", onNew+onRun)
		t.m.add("race.overhead_pct", ((onNew+onRun)/(offNew+offRun)-1)*100)
	}
	return nil
}

func blocks(m *ir.Module) int {
	n := 0
	for _, f := range m.Funcs {
		n += len(f.Blocks)
	}
	return n
}

// bare replays the stream on one bare service: the hit shares are what this
// stream leaves one node's caches able to do, and the rate is the reference
// the cluster's rate is read against.
func (t *tracer) bare(_ []int) error {
	tg, err := openInproc(t.e, t.p.s.Reqs, false)
	if err != nil {
		return err
	}
	defer tg.close()
	ss := &svcSession{s: t.p.s, t: tg, width: clients}
	warm := ss.submit(t.p.s.Warm, nil)
	before := tg.svc.Snapshot()
	st := ss.submit(t.order(traceJobs), nil)
	after := tg.svc.Snapshot()
	t.m.attempted += warm.jobs + st.jobs
	t.m.failed += warm.failed + st.failed
	share := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	t.m.add("service.instr_hit_share", share(after.InstrCacheHits-before.InstrCacheHits, after.InstrCacheMisses-before.InstrCacheMisses))
	t.m.add("service.result_hit_share", share(after.ResultCacheHits-before.ResultCacheHits, after.ResultCacheMisses-before.ResultCacheMisses))
	t.m.add("cluster.n1_ref_jobs_per_s", float64(st.jobs-st.failed)/st.dur.Seconds())
	return tg.verify()
}

// journal measures the journaled service by difference (a hit here against
// a hit on the bare service) and by its file: syncs and bytes appended per
// job, and the read side, recovery and scrub, on the log the replay wrote.
func (t *tracer) journal(sample []int) error {
	tg, err := openInproc(t.e, t.p.s.Reqs, true)
	if err != nil {
		return err
	}
	defer tg.close()                                   // closing the service twice is harmless; this also removes the journal
	for pass := 0; pass <= hitPasses(sample); pass++ { // the first pass misses, the rest hit
		for job, idx := range sample {
			var res *service.Result
			start := time.Now()
			res, err = tg.do(0, 0, idx)
			end := time.Now()
			t.check(idx, res, err)
			if pass > 0 {
				t.rec.add(job, "journal.do_hit", -1, start, end)
				t.m.add("journal.do_hit_us", float64(end.Sub(start).Nanoseconds())/1e3)
			}
		}
	}
	ss := &svcSession{s: t.p.s, t: tg, width: clients}
	syncs := tg.disk.syncs.Load()
	st := ss.submit(t.order(traceJobs), nil)
	t.m.add("journal.fsyncs_per_job", float64(tg.disk.syncs.Load()-syncs)/float64(st.jobs))
	t.m.attempted += st.jobs
	t.m.failed += st.failed
	if err := tg.verify(); err != nil {
		return err
	}
	jobs := tg.svc.Snapshot().JobsCompleted
	if err := tg.closeService(); err != nil {
		return err
	}
	info, err := os.Stat(tg.journalPath())
	if err != nil {
		return err
	}
	t.m.add("journal.bytes_per_job", float64(info.Size())/float64(jobs))
	t.m.add("journal.self_us", median(t.m.samples["journal.do_hit_us"])-median(t.m.samples["service.do_hit_us"]))

	// Recovery: Open returns once the log is replayed and every recovered
	// job's cross-check is queued, which for a log this long means most of
	// them have run.
	var re *service.Service
	_, us := t.rec.timed(0, "journal.replay", -1, func() {
		re, err = service.Open(service.Config{Workers: clients, JournalPath: tg.journalPath(), FS: tg.disk})
	})
	if err != nil {
		return err
	}
	snap := re.Snapshot()
	ctx, cancel := closeCtx()
	defer cancel()
	if err := re.Close(ctx); err != nil {
		return err
	}
	if snap.RecoveredJobs != jobs || snap.Divergences != 0 || snap.JournalQuarantined != 0 {
		return fmt.Errorf("recovered %d of %d jobs, %d divergences, %d quarantined", snap.RecoveredJobs, jobs, snap.Divergences, snap.JournalQuarantined)
	}
	t.m.add("journal.replay_jobs_per_s", float64(snap.RecoveredJobs)/us*1e6)

	info, err = os.Stat(tg.journalPath())
	if err != nil {
		return err
	}
	var rep service.ScrubReport
	_, us = t.rec.timed(0, "journal.scrub", -1, func() { rep, err = service.ScrubJournal(tg.disk, tg.journalPath(), false) })
	if err != nil {
		return err
	}
	if rep.Quarantined != 0 || rep.TornBytes != 0 {
		return fmt.Errorf("scrub found damage in a log the benchmark wrote: %+v", rep)
	}
	t.m.add("journal.scrub_mb_per_s", float64(info.Size())/us)

	// The device itself, which the timed journal does not wait for (disk.go).
	device, err := deviceFsync(tg.dir, hitsMin)
	if err != nil {
		return err
	}
	for _, us := range device {
		t.m.add("disk.fsync_us", us)
	}
	return nil
}

// cluster measures the three-node deployment: what a hit costs at the key's
// owner, what a fill from the owner adds, and how the stream splits between
// the two.
func (t *tracer) cluster(sample []int) error {
	tg, err := openN3(t.p.s.Reqs)
	if err != nil {
		return err
	}
	defer tg.close()
	ctx := context.Background()
	var fillUS []float64
	for job, idx := range sample {
		owner := tg.nodes[tg.owner[idx]].Service()
		next := tg.nodes[(tg.owner[idx]+1)%len(tg.nodes)].Service()
		req := t.p.s.Reqs[idx]
		res, err := owner.Do(ctx, req)
		t.check(idx, res, err)
		for i := 0; i < hitPasses(sample); i++ {
			_, us := t.rec.timed(job, "cluster.owner_hit", -1, func() { res, err = owner.Do(ctx, req) })
			t.check(idx, res, err)
			t.m.add("cluster.owner_hit_us", us)
		}
		// A fill happens once per key and node: afterwards the node has it.
		_, us := t.rec.timed(job, "cluster.fill", -1, func() { res, err = next.Do(ctx, req) })
		t.check(idx, res, err)
		if err == nil && res.PeerFilled {
			fillUS = append(fillUS, us)
		}
	}
	hit := median(t.m.samples["cluster.owner_hit_us"])
	for _, us := range fillUS {
		t.m.add("cluster.fill_rtt_us", us-hit)
	}
	var fills, ownerHits atomic.Int64
	ss := &svcSession{s: t.p.s, t: tg, width: clients}
	warm := ss.submit(t.p.s.Warm, nil)
	ss.each = func(seq int, res *service.Result) {
		if res.PeerFilled {
			fills.Add(1)
		}
		if res.Cached && seq%n3Detour != 0 {
			ownerHits.Add(1)
		}
	}
	st := ss.submit(t.order(2*traceJobs), nil)
	t.m.attempted += warm.jobs + st.jobs
	t.m.failed += warm.failed + st.failed
	t.m.add("cluster.fill_share", float64(fills.Load())/float64(st.jobs))
	t.m.add("cluster.owner_hit_share", float64(ownerHits.Load())/float64(st.jobs))
	var offers int64
	for _, n := range tg.nodes {
		offers += n.Stats().OffersSent
	}
	t.m.add("cluster.offers", float64(offers))
	for i := 0; i < controlRounds; i++ {
		_, us := t.rec.timed(i, "cluster.gossip_round", -1, func() { tg.nodes[0].GossipOnce(ctx) })
		t.m.add("cluster.gossip_round_us", us)
		_, us = t.rec.timed(i, "cluster.probe_round", -1, func() { tg.nodes[0].ProbeOnce(ctx) })
		t.m.add("cluster.probe_round_us", us)
	}
	return tg.verify()
}

// detserve measures the HTTP front end as a black box: a hit's round trip
// including the client's encoding, against the same hit in process.
func (t *tracer) detserve(sample []int) error {
	tg, err := startChild(t.e, t.p.s.Reqs)
	if err != nil {
		return err
	}
	defer tg.close()
	for pass := 0; pass <= hitPasses(sample); pass++ { // the first pass misses, the rest hit
		for job, idx := range sample {
			var body []byte
			var res *service.Result
			var size int
			start := time.Now()
			body, err = json.Marshal(t.p.s.Reqs[idx])
			encoded := time.Now()
			if err == nil {
				res, size, err = tg.post(0, body)
			}
			end := time.Now()
			t.check(idx, res, err)
			if pass > 0 {
				t.rec.add(job, "detserve.rtt_hit", -1, start, end)
				t.m.add("client.encode_us", float64(encoded.Sub(start).Nanoseconds())/1e3)
				t.m.add("detserve.rtt_hit_us", float64(end.Sub(start).Nanoseconds())/1e3)
				t.m.add("detserve.req_kb", float64(len(body))/1024)
				t.m.add("detserve.resp_kb", float64(size)/1024)
			}
		}
	}
	t.m.add("detserve.self_us", median(t.m.samples["detserve.rtt_hit_us"])-
		median(t.m.samples["service.do_hit_us"])-median(t.m.samples["client.encode_us"]))
	return tg.verify()
}

// overhead runs the workload's own rounds on one set-up, alternately with and
// without a span per job, for about `seconds`. The tail latencies come from
// here too: they are reported, not gated, because on a shared machine they
// do not repeat.
func (t *tracer) overhead(seconds float64) error {
	var cur session
	defer func() {
		if cur != nil {
			cur.close()
		}
	}()
	var plain, traced, lat []float64
	var host probes
	start := time.Now()
	for r := 0; r < 4 || time.Since(start).Seconds() < seconds; r++ {
		if cur == nil || t.p.fresh {
			if cur != nil {
				if err := closeVerified(cur); err != nil {
					return err
				}
				cur = nil
			}
			s, err := t.p.open()
			if err != nil {
				return fmt.Errorf("%s: set-up: %w", t.p.name, err)
			}
			cur = s
		}
		rec := t.rec
		if r%2 == 0 {
			rec = nil
		}
		var st roundStats
		if _, err := host.around(func() (err error) {
			st, err = cur.round(rec)
			return err
		}); err != nil {
			return err
		}
		t.m.attempted += st.jobs
		t.m.failed += st.failed
		rate := float64(st.jobs-st.failed) / st.dur.Seconds()
		if rec == nil {
			plain = append(plain, rate)
		} else {
			traced = append(traced, rate)
			lat = append(lat, st.lat...)
		}
	}
	err := closeVerified(cur)
	cur = nil
	if err != nil {
		return err
	}
	t.m.add("bench.host_speed", host.speed())
	t.m.add("bench.trace_overhead_pct", (median(plain)/median(traced)-1)*100)
	t.m.add("client.p99_ms", percentile(lat, 99))
	t.m.add("client.max_ms", percentile(lat, 100))
	return nil
}
