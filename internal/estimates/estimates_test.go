package estimates

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	tbl, err := Parse(`
# comment
sqrt 40
memset 10 + 1*arg1
`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if n := len(tbl.Names()); n != 2 {
		t.Fatalf("len = %d", n)
	}
	e, ok := tbl.Lookup("sqrt")
	if !ok || e.Base != 40 || e.Dynamic() {
		t.Fatalf("sqrt = %+v", e)
	}
	m, _ := tbl.Lookup("memset")
	if !m.Dynamic() || m.Scale != 1 || m.ArgIndex != 1 {
		t.Fatalf("memset = %+v", m)
	}
}

func TestEval(t *testing.T) {
	e := Estimate{Base: 10, Scale: 2, ArgIndex: 1}
	if got := e.Eval([]int64{0, 32}); got != 74 {
		t.Fatalf("Eval = %d, want 74", got)
	}
	// Missing arg index -> base only.
	if got := e.Eval([]int64{5}); got != 10 {
		t.Fatalf("Eval short args = %d", got)
	}
	// Negative results clamp to zero.
	neg := Estimate{Base: 5, Scale: -10, ArgIndex: 0}
	if got := neg.Eval([]int64{100}); got != 0 {
		t.Fatalf("Eval clamp = %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"memset",
		"memset abc",
		"memset 10 junk",
		"memset 10 + 1*xyz",
		"memset 10 + q*arg1",
		"memset 10 + 1*arg-2",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Parse(%q) error should cite line 1: %v", src, err)
		}
	}
}

func TestDefaultTable(t *testing.T) {
	tbl := DefaultTable()
	for _, name := range []string{"memset", "memcpy", "sqrt", "sin"} {
		if !tbl.Has(name) {
			t.Fatalf("default table missing %s", name)
		}
	}
	ms, _ := tbl.Lookup("memset")
	if !ms.Dynamic() {
		t.Fatalf("memset should be size-dependent")
	}
}

// Names returns all builtin names, sorted.
func (t *Table) Names() []string {
	out := make([]string, 0, len(t.byName))
	for n := range t.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// format renders a table in the file format Parse reads, sorted by name.
func format(t *Table) string {
	var sb strings.Builder
	for _, n := range t.Names() {
		e := t.byName[n]
		if e.Dynamic() {
			fmt.Fprintf(&sb, "%s %d + %d*arg%d\n", e.Name, e.Base, e.Scale, e.ArgIndex)
		} else {
			fmt.Fprintf(&sb, "%s %d\n", e.Name, e.Base)
		}
	}
	return sb.String()
}

func TestFormatRoundTrip(t *testing.T) {
	tbl := DefaultTable()
	re, err := Parse(format(tbl))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(re.Names()) != len(tbl.Names()) {
		t.Fatalf("round trip lost entries: %d vs %d", len(re.Names()), len(tbl.Names()))
	}
	for _, n := range tbl.Names() {
		a, _ := tbl.Lookup(n)
		b, ok := re.Lookup(n)
		if !ok || a != b {
			t.Fatalf("entry %s mismatch: %+v vs %+v", n, a, b)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	tbl := NewTable()
	tbl.Add(Estimate{Name: "zeta", Base: 1})
	tbl.Add(Estimate{Name: "alpha", Base: 1})
	names := tbl.Names()
	if names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

// Property: Eval is monotone in the dynamic argument for positive scales.
func TestEvalMonotoneProperty(t *testing.T) {
	f := func(base uint16, scale uint8, a, b uint16) bool {
		e := Estimate{Base: int64(base), Scale: int64(scale), ArgIndex: 0}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.Eval([]int64{lo}) <= e.Eval([]int64{hi})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
