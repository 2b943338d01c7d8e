package ir

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/diag"
)

const sampleSrc = `
module sample
locks 4
barriers 1
global grid 64
global table 3 = 10, 20, 30

func main() regs 6 {
entry:
  r0 = const 0
  r1 = tid
  r2 = nthreads
  jmp loop
loop:
  r3 = lt r0, 10
  br r3, body, done
body:
  r4 = load grid[r0]
  r5 = add r4, 1
  store grid[r0], r5
  lock 1
  unlock 1
  r0 = add r0, 1
  jmp loop
done:
  barrier 0
  print r0
  ret r0
}

func helper(r0, r1) regs 3 {
entry:
  r2 = mul r0, r1
  ret r2
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sampleSrc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.Name != "sample" {
		t.Fatalf("name = %q", m.Name)
	}
	if m.NumLocks != 4 || m.NumBars != 1 {
		t.Fatalf("locks=%d bars=%d", m.NumLocks, m.NumBars)
	}
	g := m.Global("table")
	if g == nil || g.Size != 3 || len(g.Init) != 3 || g.Init[2] != 30 {
		t.Fatalf("table global = %+v", g)
	}
	f := m.Func("main")
	if f == nil {
		t.Fatalf("main not found")
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("main blocks = %d", len(f.Blocks))
	}
	h := m.Func("helper")
	if h == nil || h.NumParams != 2 || h.NumRegs != 3 {
		t.Fatalf("helper = %+v", h)
	}
	if err := m.Verify(nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	m1 := MustParse(sampleSrc)
	text1 := m1.String()
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	text2 := m2.String()
	if text1 != text2 {
		t.Fatalf("round trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseSwitch(t *testing.T) {
	src := `
module sw
func f(r0) regs 2 {
entry:
  switch r0, [0: zero, 1: one], other
zero:
  ret 100
one:
  ret 200
other:
  ret 300
}
`
	m := MustParse(src)
	f := m.Func("f")
	term := f.Entry().Term
	if term.Kind != TermSwitch {
		t.Fatalf("kind = %v", term.Kind)
	}
	if len(term.Cases) != 2 || len(term.Succs) != 3 {
		t.Fatalf("cases=%d succs=%d", len(term.Cases), len(term.Succs))
	}
	if term.Succs[2].Name != "other" {
		t.Fatalf("default = %q", term.Succs[2].Name)
	}
	// Round trip through text.
	m2 := MustParse(m.String())
	if m2.Func("f").Entry().Term.Kind != TermSwitch {
		t.Fatalf("switch lost in round trip")
	}
}

func TestParseClockAdd(t *testing.T) {
	src := `
module ca
func f(r0) regs 2 {
entry:
  clockadd 35
  clockadd 10 + 4*r0
  ret 0
}
`
	m := MustParse(src)
	ins := m.Func("f").Entry().Instrs
	if len(ins) != 2 {
		t.Fatalf("instrs = %d", len(ins))
	}
	if ins[0].Op != OpClockAdd || ins[0].A.Imm != 35 || ins[0].Scale != 0 {
		t.Fatalf("static clockadd = %+v", ins[0])
	}
	if ins[1].A.Imm != 10 || ins[1].Scale != 4 || ins[1].B.Reg != 0 {
		t.Fatalf("dynamic clockadd = %+v", ins[1])
	}
	m2 := MustParse(m.String())
	ins2 := m2.Func("f").Entry().Instrs
	if ins2[1].Scale != 4 {
		t.Fatalf("dynamic clockadd lost in round trip")
	}
}

func TestParseCall(t *testing.T) {
	src := `
module c
func g(r0) regs 1 {
entry:
  ret r0
}
func f() regs 2 {
entry:
  r0 = call g(7)
  call g(r0)
  ret r0
}
`
	m := MustParse(src)
	if err := m.Verify(nil); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	ins := m.Func("f").Entry().Instrs
	if ins[0].Dst != 0 || ins[0].Callee != "g" || !ins[0].Args[0].IsImm {
		t.Fatalf("call = %+v", ins[0])
	}
	if ins[1].Dst != NoReg {
		t.Fatalf("void call dst = %v", ins[1].Dst)
	}
}

func TestParseComments(t *testing.T) {
	src := `
module c ; trailing comment
; full line comment
func f() regs 1 {   ; another
entry:  ; clock=99 annotations are ignored on reparse
  r0 = const 1 ; inline
  ret r0
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse with comments: %v", err)
	}
	if len(m.Func("f").Entry().Instrs) != 1 {
		t.Fatalf("comment parsing broke instructions")
	}
}

// ParseErrorCases are sources Parse must reject, with a fragment of the
// error. Exported to the package's external tests: FuzzParse seeds from them.
var ParseErrorCases = []struct {
	Name, Src, Want string
}{
	{"no module", "func f() {\nentry:\n ret 0\n}", "expected 'module"},
	{"bad op", "module m\nfunc f() regs 1 {\nentry:\n r0 = frob r0, r0\n ret 0\n}", "unknown op"},
	{"instr before label", "module m\nfunc f() regs 1 {\n r0 = const 1\n}", "before first block label"},
	{"bad operand", "module m\nfunc f() regs 1 {\nentry:\n r0 = add rX, 1\n ret 0\n}", "bad operand"},
	{"eof in func", "module m\nfunc f() regs 1 {\nentry:\n ret 0\n", "unexpected EOF"},
	{"bad global", "module m\nglobal g\n", "global wants"},
	{"switch no default", "module m\nfunc f() regs 1 {\nentry:\n switch r0, [0: a],\na:\n ret 0\n}", "missing default"},
	// Code after a block's terminator used to be accepted, and the last
	// terminator silently won: this one parsed into a block returning 7.
	{"instr after terminator", "module m\nfunc f() regs 2 {\nentry:\n r0 = const 1\n jmp exit\n r1 = const 7\n ret r1\nexit:\n ret r0\n}",
		`line 6: block "entry" already has its terminator: "r1 = const 7"`},
	{"second terminator", "module m\nfunc f() regs 1 {\nentry:\n ret 0\n ret 1\n}",
		`line 5: block "entry" already has its terminator: "ret 1"`},
	// Reported at the label's line, not the function header's.
	{"duplicate label", "module m\nfunc f() regs 1 {\na:\n jmp b\nb:\n ret 0\na:\n ret 1\n}", `line 7: duplicate block label "a"`},
	{"duplicate label after forward reference", "module m\nfunc f() regs 1 {\na:\n jmp b\nb:\n ret 0\n\nb:\n ret 1\n}", `line 8: duplicate block label "b"`},
	// A register number must fit ir.Reg: this one used to wrap to r1 = const 7.
	{"register out of range", "module m\nfunc f() regs 2 {\nentry:\n r4294967297 = const 7\n ret 0\n}", `line 4: bad register "r4294967297"`},
	{"operand register out of range", "module m\nfunc f() regs 2 {\nentry:\n r1 = add r2147483648, 1\n ret r1\n}", `line 4: bad operand "r2147483648"`},
	{"br with three targets", "module m\nfunc f() regs 1 {\nentry:\n br r0, a, b, c\na:\n ret 0\n}", "line 4: br wants"},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range ParseErrorCases {
		t.Run(tc.Name, func(t *testing.T) {
			_, err := Parse(tc.Src)
			if err == nil {
				t.Fatalf("Parse should fail")
			}
			if !strings.Contains(err.Error(), tc.Want) {
				t.Fatalf("err %q missing %q", err, tc.Want)
			}
		})
	}
}

// TestVerifyBoundsCounts: a declared register, lock or barrier count or a
// global's size parses whatever its value, and Verify refuses one that is
// negative or above its bound as a typed configuration misuse; the bound
// itself is admitted. It also refuses globals that each fit the word budget
// but sum past it.
func TestVerifyBoundsCounts(t *testing.T) {
	texts := map[string]struct {
		text  string
		limit int
	}{
		"regs":          {"module m\nfunc f() regs %d {\nentry:\n ret 0\n}\n", maxRegs},
		"locks":         {"module m\nlocks %d\nfunc f() regs 1 {\nentry:\n ret 0\n}\n", maxSyncObjects},
		"barriers":      {"module m\nbarriers %d\nfunc f() regs 1 {\nentry:\n ret 0\n}\n", maxSyncObjects},
		"global g size": {"module m\nglobal g %d\nfunc f() regs 1 {\nentry:\n ret 0\n}\n", maxGlobalWords},
	}
	for what, tc := range texts {
		for _, n := range []int{-1, tc.limit, tc.limit + 1, 1000000000} {
			m, err := Parse(fmt.Sprintf(tc.text, n))
			if err != nil {
				t.Fatalf("%s %d: Parse: %v", what, n, err)
			}
			err = m.Verify(nil)
			if n == tc.limit {
				if err != nil {
					t.Fatalf("%s %d: %v", what, n, err)
				}
				continue
			}
			var me *diag.MisuseError
			want := fmt.Sprintf("%s %d outside [0, %d]", what, n, tc.limit)
			if !errors.As(err, &me) || !errors.Is(err, diag.ErrBadConfig) || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s %d: err = %v, want a *diag.MisuseError naming %q", what, n, err, want)
			}
		}
	}
	m := MustParse(fmt.Sprintf("module m\nglobal a %d\nglobal b 1\nfunc f() regs 1 {\nentry:\n ret 0\n}\n", maxGlobalWords))
	want := fmt.Sprintf("global words %d outside [0, %d]", maxGlobalWords+1, maxGlobalWords)
	if err := m.Verify(nil); !errors.Is(err, diag.ErrBadConfig) || !strings.Contains(err.Error(), want) {
		t.Fatalf("globals summing past the budget: err = %v, want a misuse naming %q", err, want)
	}
}

func TestParseRegCountInference(t *testing.T) {
	src := `
module m
func f() {
entry:
  r5 = const 1
  ret r5
}
`
	m := MustParse(src)
	if got := m.Func("f").NumRegs; got != 6 {
		t.Fatalf("NumRegs = %d, want 6 (inferred from r5)", got)
	}
}
