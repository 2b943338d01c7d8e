package ir_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/service"
	"repro/internal/splash"
	"repro/internal/workload"
)

// The printed module text is a content address: the service's result cache,
// the cluster's ring ownership and every committed table hang off it, and
// ir.Parse, Module.String and core.Instrument have no reference
// implementation to compare against. testdata/corpus.sha256 therefore pins,
// for the five splash programs and corpusBlend blend-mix programs, the
// SHA-256 of Parse(src).String(), of the instrumented text under each of the
// six presets, and the service's result key for one fixed request.
//
// The file is never regenerated from the code under test. After a change of
// the text format that is meant, check out the commit whose text is the
// reference (for PR 12 that was the parent, 71a39d6), copy this file there,
// and run
//
//	CORPUS_SHA256_OUT=$PWD/internal/ir/testdata/corpus.sha256 go test -run TestCorpusGolden ./internal/ir/
//
// which writes the lines instead of comparing them.

const (
	corpusBlend   = 200
	corpusThreads = 4
	corpusFile    = "testdata/corpus.sha256"
)

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// corpusLines computes one line per program: name, parse digest, one digest
// per preset in harness.PresetKeys order, result key.
func corpusLines(t *testing.T) []string {
	t.Helper()
	type prog struct{ name, src string }
	var progs []prog
	for _, n := range splash.Names() {
		b, err := splash.New(n, corpusThreads)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{"splash/" + n, b.Module.String()})
	}
	spec, err := workload.MixByName("blend")
	if err != nil {
		t.Fatal(err)
	}
	spec.PoolSize, spec.Threads = corpusBlend, corpusThreads
	mix, err := workload.Synthesize(workload.NewPartitionedRNG(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range mix.Progs {
		progs = append(progs, prog{p.Name, p.Source})
	}

	svc := service.New(service.Config{})
	defer svc.Kill()
	keys := harness.PresetKeys()
	var lines []string
	for i, p := range progs {
		m, err := ir.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		fields := []string{p.name, sha(m.String())}
		for _, k := range keys {
			im := ir.MustParse(p.src)
			opt := harness.PresetByKey(k)
			opt.Roots = []string{"main"}
			if _, err := core.Instrument(im, nil, nil, opt); err != nil {
				t.Fatalf("%s preset %s: %v", p.name, k, err)
			}
			fields = append(fields, sha(im.String()))
		}
		// One fixed request per program; every fifth is a baseline job so
		// both branches of the instrumentation key are pinned.
		req := service.Request{
			Source: p.src, Threads: corpusThreads, Preset: keys[i%len(keys)],
			PerturbSeed: int64(i), Race: i%3 == 0,
		}
		if i%5 == 4 {
			req.Baseline, req.Race = true, false
		}
		key, err := svc.KeyFor(req)
		if err != nil {
			t.Fatalf("%s: KeyFor: %v", p.name, err)
		}
		lines = append(lines, strings.Join(append(fields, key), " "))
	}
	return lines
}

func TestCorpusGolden(t *testing.T) {
	got := corpusLines(t)
	if out := os.Getenv("CORPUS_SHA256_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %d lines to %s", len(got), out)
	}
	raw, err := os.ReadFile(corpusFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d programs, %s has %d", len(got), corpusFile, len(want))
	}
	cols := append([]string{"name", "parse"}, harness.PresetKeys()...)
	cols = append(cols, "result key")
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		for c := range g {
			if c >= len(w) || g[c] != w[c] {
				t.Errorf("%s: %s differs from %s", g[0], cols[c], corpusFile)
				break
			}
		}
	}
}

// TestModuleStringAllocs pins the printer's allocations: the byte slice it
// appends into, sized up front, and the string made of it.
func TestModuleStringAllocs(t *testing.T) {
	b := splash.Radiosity(corpusThreads)
	for _, instrument := range []bool{false, true} {
		m := b.Module.Clone()
		if instrument {
			opt := core.OptAll
			opt.Roots = []string{b.Entry}
			if _, err := core.Instrument(m, nil, nil, opt); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(10, func() { _ = m.String() }); n > 2 {
			t.Errorf("Module.String (instrumented=%v): %v allocations, want at most 2", instrument, n)
		}
	}
}
