package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nemesis"
	"repro/internal/splash"
	"repro/internal/vfs"
)

// TestNemesisSingleNodeProperty is the storage/integrity acceptance property:
// across ≥20 seeded nemesis schedules mixing job submissions, SIGTERM-style
// kills, armed disk faults (ENOSPC, short writes, fsync errors) and
// post-crash journal scars (bit flips, garbled tails, duplicated and junk
// lines), the service never serves corrupt data and never *silently* loses a
// job: every acknowledged job either completes with its reference
// deterministic core, or its loss is accounted for — by a quarantined journal
// line (detected corruption) or by a crash that followed a degraded-journal
// acknowledgment (detected durability loss).
//
// Each schedule is a pure function of its seed: the plan is generated twice
// and must fingerprint identically, and the executed timeline must fingerprint
// identically to the plan — the per-class partitioned RNG streams are what
// make that hold even though disk-fault draws (whose positions depend on
// system progress) happen online.
func TestNemesisSingleNodeProperty(t *testing.T) {
	var variants []nemVariant
	ref := New(Config{Workers: 2})
	for _, name := range []string{"ocean", "volrend"} {
		b, err := splash.New(name, 4)
		if err != nil {
			t.Fatalf("splash.New(%s): %v", name, err)
		}
		for p := int64(1); p <= 2; p++ {
			req := Request{Source: b.Module.String(), PerturbSeed: p}
			variants = append(variants, nemVariant{req: req, core: coreOf(mustDo(t, ref, req))})
		}
	}
	if err := ref.Close(context.Background()); err != nil {
		t.Fatalf("reference Close: %v", err)
	}

	schedules := 20
	if testing.Short() {
		schedules = 5 // -short: a fast slice of the property
	}
	for seed := int64(1); seed <= int64(schedules); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule-%02d", seed), func(t *testing.T) {
			t.Parallel()
			runNemesisSchedule(t, seed, variants)
		})
	}
}

// nemVariant pairs a request with its reference deterministic core.
type nemVariant struct {
	req  Request
	core string
}

func runNemesisSchedule(t *testing.T, seed int64, variants []nemVariant) {
	// Op order is schedule identity: process and integrity events (which
	// kill + reopen) come before the storage arm, so reopening always runs
	// against a disarmed FS, and workload submits come last so an armed blip
	// hits the same step's submissions.
	ops := []nemesis.OpSpec{
		{Class: nemesis.ClassProcess, Op: "kill", Rate: 0.2},
		{Class: nemesis.ClassIntegrity, Op: "scar", Rate: 0.2, ArgN: nemesis.NumScarKinds},
		{Class: nemesis.ClassStorage, Op: "blip", Rate: 0.3},
		{Class: nemesis.ClassWorkload, Op: "submit", Rate: 0.9, ArgN: len(variants)},
	}
	planCfg := nemesis.PlanConfig{Steps: 12, Targets: []string{"node-0"}}
	plan := nemesis.Plan(seed, planCfg, ops)
	if again := nemesis.Plan(seed, planCfg, ops); nemesis.Fingerprint(again) != nemesis.Fingerprint(plan) {
		t.Fatalf("seed %d: two plans disagree: %s vs %s",
			seed, nemesis.Fingerprint(plan), nemesis.Fingerprint(again))
	}

	eng := nemesis.New(seed)
	ffs := nemesis.NewFaultFS(eng, vfs.OS{}, nemesis.FaultFSConfig{
		ShortWriteRate: 0.25,
		WriteErrRate:   0.2,
		SyncErrRate:    0.2,
	})
	path := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := Config{
		Workers:           2,
		JournalPath:       path,
		JournalFsyncEvery: 2,
		FS:                ffs,
		BreakerThreshold:  1000, // detected corruption must not shed the harness's own submits
	}

	acked := map[string]int{}     // job id → variant index
	volatile := map[string]bool{} // acked while the journal was degraded: not durable
	lostOK := map[string]bool{}   // losses explained by a crash after degradation
	quarTotal := 0                // quarantined lines across all incarnations

	open := func() *Service {
		svc, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		quarTotal += int(svc.Snapshot().JournalQuarantined)
		return svc
	}
	svc := open()
	// crash kills the incarnation; anything acknowledged without durability
	// is now legitimately (and accountably) gone.
	crash := func() {
		svc.Kill()
		for id := range volatile {
			lostOK[id] = true
		}
		volatile = map[string]bool{}
	}

	step := -1
	for _, e := range plan {
		if e.Step != step {
			// A blip arms the FS for the remainder of its own step only.
			ffs.Arm(false)
			step = e.Step
		}
		switch e.Op {
		case "kill":
			crash()
			svc = open()
		case "scar":
			crash()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read journal for scar: %v", err)
			}
			if err := os.WriteFile(path, eng.ScarJournal(raw, e.Arg), 0o644); err != nil {
				t.Fatalf("write scarred journal: %v", err)
			}
			svc = open()
		case "blip":
			ffs.Arm(true)
		case "submit":
			id, err := svc.Submit(variants[e.Arg].req)
			if err != nil {
				t.Fatalf("submit variant %d: %v", e.Arg, err)
			}
			acked[id] = e.Arg
			if svc.Snapshot().JournalDegraded {
				volatile[id] = true
			}
		}
		eng.Record(e)
	}
	ffs.Arm(false)

	// The executed timeline is the plan, faithfully applied.
	if got := eng.Fingerprint(); got != nemesis.Fingerprint(plan) {
		t.Fatalf("executed timeline fingerprint %s != plan fingerprint %s", got, nemesis.Fingerprint(plan))
	}

	// Final incarnation on healthy storage: one more crash-style restart so
	// the last degraded window (if any) is accounted, then drain.
	crash()
	svc = open()
	defer svc.Close(context.Background())

	missing := 0
	for id, vi := range acked {
		if _, err := svc.Lookup(id); err != nil {
			if !lostOK[id] {
				missing++
			}
			continue
		}
		if _, err := svc.Wait(context.Background(), id); err != nil {
			t.Fatalf("job %s failed after recovery: %v", id, err)
		}
		v, err := svc.Lookup(id)
		if err != nil {
			t.Fatalf("Lookup %s: %v", id, err)
		}
		if v.Status != StatusDone || v.Result == nil {
			t.Fatalf("job %s: status %q after drain", id, v.Status)
		}
		if got := coreOf(v.Result); got != variants[vi].core {
			t.Fatalf("job %s (variant %d): core %s, want reference %s — corrupt data served", id, vi, got, variants[vi].core)
		}
	}
	// Every unexplained disappearance must be covered by a *detected*
	// corruption: at most one job lost per quarantined line.
	if missing > quarTotal {
		t.Fatalf("%d jobs silently lost (only %d quarantined lines can account for losses)", missing, quarTotal)
	}
	if snap := svc.Snapshot(); snap.Divergences != 0 {
		t.Fatalf("recovery cross-checks found %d divergences", snap.Divergences)
	}
}
