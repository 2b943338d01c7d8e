// Command detviz reproduces the paper's worked optimization example
// (Figures 3, 5, 7/8, 10, 12, 13): it prints the per-block logical clocks of
// the example function after each optimization stage, so the effect of every
// transformation is visible.
//
// Usage:
//
//	detviz            # the built-in worked example (paper Figure 3 analog)
//	detviz -f prog.dir -fn name   # any function of a textual IR program
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/ir"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status: 0, 1 for a program that cannot be read, parsed or analysed
// or a function it lacks, 2 for a bad invocation.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("detviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file = fs.String("f", "", "textual IR program (default: built-in worked example)")
		fn   = fs.String("fn", "bf_refine", "function to display")
		root = fs.String("root", "main", "thread entry function")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "detviz:", err)
		return 1
	}

	load := func() (*ir.Module, error) {
		if *file == "" {
			return core.WorkedExample(), nil
		}
		src, err := os.ReadFile(*file)
		if err != nil {
			return nil, err
		}
		return ir.Parse(string(src))
	}

	stages := []struct {
		title string
		opt   core.Options
	}{
		{"Figure 3 — base clocks, no optimization", core.OptNone},
		{"Figure 5 — after Optimization 1 (Function Clocking)", core.OptO1},
		{"Figures 7/8 — + Optimization 2a (Conditional Blocks, precise)", core.Options{O1: true, O2a: true}},
		{"Figure 10 — + Optimization 2b (Conditional Blocks, triangle)", core.Options{O1: true, O2a: true, O2b: true}},
		{"Figure 12 — + Optimization 3 (Averaging of Clocks)", core.Options{O1: true, O2a: true, O2b: true, O3: true}},
		{"Figure 13 — + Optimization 4 (Loops): all optimizations", core.OptAll},
	}
	for _, st := range stages {
		m, err := load()
		if err != nil {
			return fail(err)
		}
		opt := st.opt
		opt.Roots = []string{*root}
		res, err := core.AnalyzeOnly(m, nil, nil, opt)
		if err != nil {
			return fail(err)
		}
		f := m.Func(*fn)
		if f == nil {
			return fail(fmt.Errorf("function %q not found", *fn))
		}
		fmt.Fprintf(stdout, "==== %s ====\n", st.title)
		if len(res.Clockable) > 0 {
			fmt.Fprintf(stdout, "clocked functions: %v\n", res.ClockableNames())
		}
		printClocks(stdout, f)
		fmt.Fprintln(stdout)
	}
	return 0
}

// printClocks renders one block per line with its clock, marking zero-clock
// blocks (no update code) the way the paper greys them out.
func printClocks(w io.Writer, f *ir.Func) {
	total := int64(0)
	for _, b := range f.Blocks {
		mark := ""
		if b.Unclockable {
			mark = "  [unclockable: sync/unclocked call]"
		} else if b.Clock == 0 {
			mark = "  [no update]"
		}
		fmt.Fprintf(w, "  %-24s clock = %-5d%s\n", b.Name+":", b.Clock, mark)
		total += b.Clock
	}
	fmt.Fprintf(w, "  %-24s total = %d\n", "", total)
}
