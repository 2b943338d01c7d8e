// Package estimates implements the paper's "instructions estimate file"
// (§III-B): a text file declaring, for builtin and library functions that the
// compiler cannot instrument (memset, math functions, ...), the approximate
// number of instructions they execute, optionally as a function of one of
// their parameters (e.g. memset's size argument).
//
// File format, one entry per line:
//
//	# comment
//	sqrt    40
//	memset  10 + 1*arg1
//	memcpy  12 + 2*arg2
//
// "argN" refers to the callee's N-th argument (0-based). At instrumentation
// time, constant-argument calls fold to a static clock charge; register
// arguments produce a dynamic clock update (clockadd base + scale*reg).
package estimates

import (
	"fmt"
	"strconv"
	"strings"
)

// Estimate is the instruction-count model for one builtin:
// cost(args) = Base + Scale*args[ArgIndex] (Scale 0 means constant cost).
type Estimate struct {
	Name     string
	Base     int64
	Scale    int64
	ArgIndex int // meaningful only when Scale != 0
}

// Dynamic reports whether the estimate depends on an argument value.
func (e Estimate) Dynamic() bool { return e.Scale != 0 }

// Eval computes the estimated instruction count for concrete arguments.
// Missing arguments contribute zero; negative contributions clamp to zero.
func (e Estimate) Eval(args []int64) int64 {
	c := e.Base
	if e.Scale != 0 && e.ArgIndex >= 0 && e.ArgIndex < len(args) {
		c += e.Scale * args[e.ArgIndex]
	}
	if c < 0 {
		return 0
	}
	return c
}

// Table maps builtin names to estimates.
type Table struct {
	byName map[string]Estimate
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{byName: map[string]Estimate{}} }

// Add inserts or replaces an estimate.
func (t *Table) Add(e Estimate) { t.byName[e.Name] = e }

// Lookup returns the estimate for name.
func (t *Table) Lookup(name string) (Estimate, bool) {
	e, ok := t.byName[name]
	return e, ok
}

// Has reports whether name is a known builtin.
func (t *Table) Has(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// Parse reads the estimate file format. Unknown or malformed lines produce
// errors identifying the line number.
func Parse(src string) (*Table, error) {
	t := NewTable()
	for i, raw := range strings.Split(src, "\n") {
		line := raw
		if j := strings.IndexByte(line, '#'); j >= 0 {
			line = line[:j]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("estimates: line %d: %w", i+1, err)
		}
		t.Add(e)
	}
	return t, nil
}

func parseLine(line string) (Estimate, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Estimate{}, fmt.Errorf("want '<name> <base> [+ <scale>*argN]', got %q", line)
	}
	e := Estimate{Name: fields[0], ArgIndex: -1}
	base, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Estimate{}, fmt.Errorf("bad base cost %q: %v", fields[1], err)
	}
	e.Base = base
	rest := strings.Join(fields[2:], "")
	if rest == "" {
		return e, nil
	}
	if !strings.HasPrefix(rest, "+") {
		return Estimate{}, fmt.Errorf("unexpected trailing %q", rest)
	}
	term := strings.TrimPrefix(rest, "+")
	star := strings.Index(term, "*")
	if star < 0 {
		return Estimate{}, fmt.Errorf("dynamic term wants '<scale>*argN', got %q", term)
	}
	scale, err := strconv.ParseInt(term[:star], 10, 64)
	if err != nil {
		return Estimate{}, fmt.Errorf("bad scale %q: %v", term[:star], err)
	}
	argTok := term[star+1:]
	if !strings.HasPrefix(argTok, "arg") {
		return Estimate{}, fmt.Errorf("dynamic term wants argN, got %q", argTok)
	}
	idx, err := strconv.Atoi(strings.TrimPrefix(argTok, "arg"))
	if err != nil || idx < 0 {
		return Estimate{}, fmt.Errorf("bad arg index %q", argTok)
	}
	e.Scale = scale
	e.ArgIndex = idx
	return e, nil
}

// DefaultTable covers the builtins the paper mentions (§III-B): memset and
// friends with size-dependent cost plus constant-cost math routines.
func DefaultTable() *Table {
	t, err := Parse(defaultSrc)
	if err != nil {
		panic("estimates: bad default table: " + err.Error())
	}
	return t
}

const defaultSrc = `
# Size-dependent memory builtins (arg1 = byte/word count).
memset  12 + 1*arg1
memcpy  14 + 2*arg2
memmove 16 + 2*arg2
bzero   10 + 1*arg1

# Constant-cost math builtins (approximate x86 latencies in instructions).
sqrt  22
sin   46
cos   46
tan   60
exp   52
log   52
pow   70
fabs  3
floor 6
ceil  6

# Misc libc-ish helpers.
abs    3
min    3
max    3
rand_r 18
`
