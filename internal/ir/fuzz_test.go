package ir_test

import (
	"testing"

	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/splash"
)

// FuzzParse feeds Parse arbitrary text: the IR source is the one input of
// the service a client controls. Parse must not panic; whatever it accepts
// must print to text it accepts again and prints identically (the printed
// text is a cache key, so the printer/parser pair has to be a fixed point),
// and a module that verifies must still verify after the round trip.
//
// CI runs it for 30 s in the service job:
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s -fuzzminimizetime 1s ./internal/ir/
//
// The splash seeds are up to 145 kB: at the default minute of minimization
// per interesting input the run would spend its 30 s shrinking the first one.
func FuzzParse(f *testing.F) {
	for _, n := range splash.Names() {
		b, err := splash.New(n, 4)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Module.String())
	}
	cfg := irgen.Default()
	cfg.WithSync = true
	f.Add(irgen.Generate(1, cfg).String())
	for _, id := range irgen.Idioms() {
		f.Add(irgen.GenerateIdiom(id, 1, cfg).String())
	}
	for _, tc := range ir.ParseErrorCases {
		f.Add(tc.Src)
	}
	// Accepted, not verifiable: a branch target with no label, odd names.
	f.Add("module m\nlocks -1\nglobal g 2 = 1, 2\nglobal g 4 = 3\nfunc f(a,b) junk {\na :\n jmp b\n}\n")
	f.Add("module m\nfunc f() {\nx:y:\n r1 = call g(r0, -3)\n switch r1, [1: x:y], d,e\n}")

	has := estimates.DefaultTable().Has
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		if err != nil {
			return
		}
		text := m.String()
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("printed text does not parse: %v\n%s", err, text)
		}
		if text2 := m2.String(); text2 != text {
			t.Fatalf("not a fixed point:\n--- printed\n%s\n--- reprinted\n%s", text, text2)
		}
		if m.Verify(has) == nil {
			if err := m2.Verify(has); err != nil {
				t.Fatalf("verifies, but not after the round trip: %v\n%s", err, text)
			}
		}
	})
}
