package service_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/splash"
	"repro/internal/workload"
)

// oneShotKey is the result key as one SHA-256 over one buffer, formatted the
// way the key was first defined: the reference the resumed computation must
// equal byte for byte.
func oneShotKey(text string, req *service.Request) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("mod\x00%s\x00threads\x00%d\x00entry\x00%s\x00det\x00%t\x00race\x00%t\x00seed\x00%d",
		text, req.Threads, req.Entry, !req.Baseline, req.Race, req.PerturbSeed)))
	return hex.EncodeToString(sum[:])
}

// TestResultKeyResumesState: a job's key resumes the SHA-256 state saved with
// its module and hashes only the configuration. The saved state carries a
// partial block, so every text length around the 64-byte block boundaries is
// checked, then every program of the ir corpus through KeyFor.
func TestResultKeyResumesState(t *testing.T) {
	reqs := []service.Request{
		{Threads: 4, Entry: "main"},
		{Threads: 128, Entry: strings.Repeat("e", 70), Baseline: true, PerturbSeed: -1 << 63},
		{Threads: 1, Entry: "m", Race: true, PerturbSeed: 1<<63 - 1},
	}
	for n := 0; n <= 200; n++ {
		text := strings.Repeat("module m\n", 23)[:n]
		for i := range reqs {
			if got, want := service.ResultKeyOfText(text, &reqs[i]), oneShotKey(text, &reqs[i]); got != want {
				t.Fatalf("text length %d, request %d: resumed key %s, one-shot %s", n, i, got, want)
			}
		}
	}

	type prog struct{ name, src string }
	var progs []prog
	for _, n := range splash.Names() {
		b, err := splash.New(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{"splash/" + n, b.Module.String()})
	}
	spec, err := workload.MixByName("blend")
	if err != nil {
		t.Fatal(err)
	}
	spec.PoolSize, spec.Threads = 200, 4
	mix, err := workload.Synthesize(workload.NewPartitionedRNG(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mix.Progs {
		progs = append(progs, prog{p.Name, p.Source})
	}
	svc := service.New(service.Config{})
	defer svc.Kill()
	presets := harness.PresetKeys()
	for i, p := range progs {
		req := service.Request{
			Source: p.src, Threads: 4, Entry: "main", Preset: presets[i%len(presets)],
			PerturbSeed: int64(i), Race: i%3 == 0 && i%5 != 4, Baseline: i%5 == 4,
		}
		mod, err := ir.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !req.Baseline {
			opt := harness.PresetByKey(req.Preset)
			opt.Roots = []string{req.Entry}
			if _, err := core.Instrument(mod, nil, nil, opt); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
		for range 2 { // from the entry just inserted, then from the cached one
			got, err := svc.KeyFor(req)
			if err != nil {
				t.Fatalf("%s: KeyFor: %v", p.name, err)
			}
			if want := oneShotKey(mod.String(), &req); got != want {
				t.Fatalf("%s: resumed key %s, one-shot %s", p.name, got, want)
			}
		}
	}
}
