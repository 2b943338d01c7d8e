package ir_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/estimates"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/splash"
)

// addParseSeeds seeds a parser fuzz target: every splash program, irgen
// programs of each idiom, every ParseErrorCases source, and two accepted
// texts that do not verify.
func addParseSeeds(f *testing.F) {
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
}

// FuzzParse feeds Parse arbitrary text: the IR source is the one input of
// the service a client controls. Parse must not panic; whatever it accepts
// must print to text it accepts again and prints identically (the printed
// text is a cache key, so the printer/parser pair has to be a fixed point),
// and a module that verifies must still verify after the round trip.
//
// CI runs it for 30 s in the service job:
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s -fuzzminimizetime 1s ./internal/ir/
//
// The splash seeds are up to 145 kB: at the default minute of minimization
// per interesting input the run would spend its 30 s shrinking the first one.
func FuzzParse(f *testing.F) {
	addParseSeeds(f)
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

// FuzzParseMatchesReference holds Parse to its reference twin, the
// line-at-a-time parser it replaced (parse_ref_test.go): both accept or
// both reject, a rejection names the same line, and an accepted text gives
// the same module — printed text, register counts, and every block's name,
// index and successors by position.
//
// CI runs it for 10 s beside FuzzParse:
//
//	go test -run '^$' -fuzz FuzzParseMatchesReference -fuzztime 10s -fuzzminimizetime 1s ./internal/ir/
//
// Besides FuzzParse's seeds it starts from one splash text respelled the
// ways the cursor's fast paths do not expect: doubled spaces, tabs, ';'
// comments, CRLF line ends, a non-breaking space around tokens, and signed
// register numbers.
func FuzzParseMatchesReference(f *testing.F) {
	addParseSeeds(f)
	b, err := splash.New("water-nsq", 4)
	if err != nil {
		f.Fatal(err)
	}
	text := b.Module.String()
	for _, v := range []string{
		strings.ReplaceAll(strings.ReplaceAll(text, " ", "  "), "\n", " \n "),
		strings.ReplaceAll(strings.ReplaceAll(text, "  ", "\t"), ", ", ",\t"),
		strings.ReplaceAll(strings.ReplaceAll(text, "\n", " ; c, d: [e]\n"), "  ", "; x\n  "),
		strings.ReplaceAll(text, "\n", "\r\n"),
		strings.ReplaceAll(strings.ReplaceAll(text, ", ", ",\u00a0"), "\n  ", "\n\u00a0 "),
		strings.ReplaceAll(strings.ReplaceAll(text, " r1", " r+1"), " r2,", " r-2,"),
	} {
		f.Add(v)
	}
	f.Add("module m\nfunc f() regs 1 {\nentry:\n br r0, a, b, c\na:\n ret 0\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ir.Parse(src)
		ref, refErr := ir.ParseReference(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse error %v, reference error %v\n%q", err, refErr, src)
		}
		if err != nil {
			if got, want := ir.ParseErrorLine(err), ir.ParseErrorLine(refErr); got != want || got == 0 {
				t.Fatalf("Parse fails at line %d (%v), reference at line %d (%v)\n%q", got, err, want, refErr, src)
			}
			return
		}
		if got, want := shape(m), shape(ref); got != want {
			t.Fatalf("modules differ:\n--- Parse\n%s\n--- reference\n%s", got, want)
		}
	})
}

// shape renders what FuzzParseMatchesReference compares of a module.
func shape(m *ir.Module) string {
	var sb strings.Builder
	sb.WriteString(m.String())
	for _, f := range m.Funcs {
		fmt.Fprintf(&sb, "func %q params %d regs %d\n", f.Name, f.NumParams, f.NumRegs)
		for i, b := range f.Blocks {
			fmt.Fprintf(&sb, "  %d %q index %d own %v succs", i, b.Name, b.Index, b.Func == f)
			for _, s := range b.Term.Succs {
				fmt.Fprintf(&sb, " %d", s.Index)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
