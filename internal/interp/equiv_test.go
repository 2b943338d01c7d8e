package interp

// The decoded dispatch loop (stepFast) against the tree-walking oracle
// (Config.Reference), on programs the SPLASH property never reaches: every
// decoded opcode, a yield at every position of a folded add run, and every
// runtime fault. Both paths run under the same engine, so any difference in
// the counters below is the interpreter's.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/sim"
)

// equivCell is one configuration both interpreters run.
type equivCell struct {
	mode      ClockMode
	policy    sim.LockPolicy
	threads   int
	maxCycles int64
	chunk     int64
	race      bool
	failFast  bool // the detector's RaceFailFast policy instead of RaceReport
	skip      bool // SkipVerify: programs the verifier would refuse
}

// equivOutcome is everything stepFast keeps or flushes: the engine's stats,
// each thread's output and retired count (spawned threads included), the
// machine counters, any race reports, and the error text.
type equivOutcome struct {
	Stats   *sim.Stats
	Outputs [][]int64
	Retired []int64
	Instrs  int64
	Stores  int64
	Misses  int64
	Clock   int64
	Irq     int64
	Races   []string
	Err     string
}

func runEquivCell(m *ir.Module, c equivCell, ref bool) equivOutcome {
	cfg := Config{
		Module: m, Threads: c.threads, Mode: c.mode,
		MaxStepCycles: c.maxCycles, KendoChunkSize: c.chunk,
		Reference: ref, SkipVerify: c.skip,
	}
	if c.race {
		cfg.Race = &RaceConfig{Policy: RaceReport}
		if c.failFast {
			cfg.Race.Policy = RaceFailFast
		}
	}
	mach, ths, err := NewMachine(cfg)
	if err != nil {
		return equivOutcome{Err: "machine: " + err.Error()}
	}
	eng := sim.New(sim.Config{
		Policy: c.policy, NumLocks: m.NumLocks, NumBarriers: m.NumBars,
		RecordTrace: true, Observer: mach.Observer(), MaxSteps: 2_000_000,
	}, Programs(ths))
	stats, err := eng.Run()
	o := equivOutcome{
		Stats: stats, Instrs: mach.InstrsExecuted, Stores: mach.StoresRetired,
		Misses: mach.CacheMisses, Clock: mach.ClockUpdates, Irq: mach.Interrupts,
	}
	if err != nil {
		o.Err = err.Error()
	}
	for _, th := range append(ths, mach.spawned...) {
		o.Outputs = append(o.Outputs, th.Output)
		o.Retired = append(o.Retired, th.RetiredInstrs)
	}
	for _, r := range mach.Races() {
		o.Races = append(o.Races, r.Error())
	}
	return o
}

// checkEquiv runs c on both paths and fails on any difference. It returns
// the reference outcome so callers can assert what the program did.
func checkEquiv(t *testing.T, name string, m *ir.Module, c equivCell) equivOutcome {
	t.Helper()
	want := runEquivCell(m, c, true)
	got := runEquivCell(m, c, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %+v: decoded diverges from reference\nref: %s\ndec: %s", name, c, summarize(want), summarize(got))
	}
	return want
}

func summarize(o equivOutcome) string {
	s := fmt.Sprintf("instrs=%d stores=%d misses=%d clock=%d irq=%d retired=%v races=%d err=%q",
		o.Instrs, o.Stores, o.Misses, o.Clock, o.Irq, o.Retired, len(o.Races), o.Err)
	if o.Stats != nil {
		s += fmt.Sprintf(" steps=%d makespan=%d trace=%d", o.Stats.Steps, o.Stats.Makespan, len(o.Stats.Trace))
	}
	return s
}

// equivProgram builds program seed of the irgen blend: the five sync idioms
// and the generic generator with locks and barriers. The DetLock cells run
// it instrumented with a seed-chosen Table I preset; Kendo runs the plain
// program, or the instrumented one (its clockadds are physical-cost no-ops
// there) on odd seeds.
func equivProgram(seed uint64, mode ClockMode, threads int) *ir.Module {
	gc := irgen.Default()
	gc.WithSync, gc.Threads = true, threads
	var m *ir.Module
	if ids := irgen.Idioms(); seed%uint64(len(ids)+1) < uint64(len(ids)) {
		m = irgen.GenerateIdiom(ids[seed%uint64(len(ids)+1)], seed, gc)
	} else {
		m = irgen.Generate(seed, gc)
	}
	if mode == ModeKendo && seed%2 == 0 {
		return m
	}
	presets := core.TableIPresets()
	opt := presets[seed%uint64(len(presets))]
	opt.Roots = []string{"main"}
	if _, err := core.Instrument(m, nil, nil, opt); err != nil {
		panic(fmt.Sprintf("instrument seed %d: %v", seed, err))
	}
	return m
}

// equivModes are the three clock/policy pairs of the paper's comparison.
var equivModes = []struct {
	mode   ClockMode
	policy sim.LockPolicy
}{
	{ModeDetLock, sim.PolicyDet},
	{ModeKendo, sim.PolicyDet},
	{ModeDetLock, sim.PolicyFCFS},
}

// opcodeSrc executes every decoded opcode at least once: the logic and
// compare operators the blend never emits, every builtin kind, division by
// zero, scaled and negative clock updates, a switch, prints, a barrier, and
// a spawned worker joined by its parent.
const opcodeSrc = `
module opcodes
global buf 8
locks 1
barriers 1

func worker(r0) regs 6 {
entry:
  r1 = shl r0, 3
  r2 = shr r1, 1
  r3 = neg r2
  r4 = not r3
  lock 0
  store buf[r0], r4
  unlock 0
  print r4
  ret r4
}

func main() regs 24 {
entry:
  r0 = tid
  r1 = nthreads
  r2 = or r0, 6
  r3 = ne r2, r1
  r4 = le r2, r1
  r5 = gt r2, r1
  r6 = ge r2, r1
  r7 = div r2, 0
  r8 = mod r2, 0
  r7 = div r2, 3
  r8 = mod r2, 4
  clockadd 5 + 3*r2
  clockadd -40 + 2*r0
  r9 = call sqrt(r2)
  r10 = call abs(-7)
  r11 = call min(r2, r1)
  r12 = call max(r2, r1)
  r13 = call sin(r2, 3)
  r14 = call rand_r(r2)
  r15 = call memset(r0, 40)
  r17 = xor r9, r14
  r18 = sub r17, r15
  print r18
  switch r0, [0: even, 1: odd], other
even:
  r19 = spawn worker(r2)
  join r19
  jmp done
odd:
  r19 = const 1
  jmp done
other:
  jmp done
done:
  barrier 0
  r20 = load buf[r2]
  r21 = add r20, r3
  r21 = add r21, r4
  r21 = add r21, r5
  r21 = add r21, r6
  print r21
  ret r21
}
`

// faultSrcs each stop a thread with a runtime error. Unknown callees and the
// decoder's fallback for a terminator kind outside the IR need
// SkipVerify: the verifier refuses them before they could run. The races are
// errors only under the fail-fast detector, which the cells arm under the
// deterministic policy.
var faultSrcs = []struct {
	name, src string
	skip      bool
	mutate    func(*ir.Module) // a malformation no parsed module carries
	// (an opcode outside the IR's has no cost and faults in the cost
	// model before either interpreter sees it)
}{
	{"write race", `
module f
global g 4
func main() regs 4 {
entry:
  r0 = tid
  store g[1], r0
  ret r0
}
`, false, nil},
	{"read race", `
module f
global g 4
func main() regs 4 {
entry:
  r0 = tid
  br r0, reader, writer
writer:
  store g[1], r0
  ret r0
reader:
  r1 = add r0, 1
  r1 = add r1, 1
  r2 = load g[1]
  ret r2
}
`, false, nil},
	{"load out of bounds", `
module f
global g 4
func main() regs 4 {
entry:
  r0 = tid
  r1 = add r0, 3
  r1 = add r1, 1
  r2 = load g[r1]
  ret r2
}
`, false, nil},
	{"store out of bounds", `
module f
global g 4
func main() regs 4 {
entry:
  r0 = tid
  r1 = sub r0, 1
  store g[r1], r0
  ret r0
}
`, false, nil},
	{"call stack overflow", `
module f
func f(r0) regs 2 {
entry:
  r1 = add r0, 1
  r1 = call f(r1)
  ret r1
}
func main() regs 2 {
entry:
  r0 = call f(0)
  ret r0
}
`, false, nil},
	{"unknown builtin", `
module f
func main() regs 2 {
entry:
  r0 = add r0, 1
  r1 = call nosuch(r0)
  ret r1
}
`, true, nil},
	{"unknown spawn target", `
module f
func main() regs 2 {
entry:
  r0 = add r0, 1
  r1 = spawn nosuch(r0)
  join r1
  ret r1
}
`, true, nil},
	{"unknown terminator", faultBody, true, func(m *ir.Module) { m.Funcs[0].Blocks[0].Term.Kind = 200 }},
	{"spawn past the thread bound", `
module f
func child() regs 1 {
entry:
  ret 0
}
func main() regs 3 {
entry:
  r0 = const 0
  jmp loop
loop:
  r1 = lt r0, 300
  br r1, body, done
body:
  r2 = spawn child()
  r0 = add r0, 1
  jmp loop
done:
  ret r0
}
`, false, nil},
}

const faultBody = `
module f
func main() regs 2 {
entry:
  r0 = add r0, 1
  ret r0
}
`

// kendoBuiltinSrc pushes the Kendo accumulator past any small chunk inside
// one builtin call, between short add runs.
const kendoBuiltinSrc = `
module kb
global g 2
func main() regs 4 {
entry:
  r0 = tid
  r1 = add r0, 1
  r1 = add r1, 2
  r2 = call memset(r0, 500)
  r1 = add r1, r2
  r1 = add r1, 3
  r1 = add r1, 4
  store g[r0], r1
  ret r1
}
`

// addRunSrc is the SPLASH models' compute padding, which irgen seeds almost
// never produce: a loop whose body holds a 131-add run on r1 (longer than
// every chunk, a length neither 3 nor 17 divides, immediates that differ and
// wrap), an adjacent 20-add run on r2, a register-operand accumulate on r3
// that must not fold, and a 22-add run on r4 that ends its block. 300 trips
// of 181 cycles cross the default step bound inside the r1 run.
var addRunSrc = func() string {
	var b strings.Builder
	b.WriteString("module addruns\nglobal out 4\n\nfunc main() regs 8 {\nentry:\n  r0 = tid\n  r5 = const 0\n  jmp loop\nloop:\n  r6 = lt r5, 300\n  br r6, body, done\nbody:\n  r5 = add r5, 1\n")
	for i := 0; i < 131; i++ {
		imm := int64(i%7 - 3)
		if i%40 == 39 {
			imm = 1<<63 - 1
		}
		fmt.Fprintf(&b, "  r1 = add r1, %d\n", imm)
	}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&b, "  r2 = add r2, %d\n", i)
	}
	b.WriteString("  r3 = add r3, r1\n  r3 = add r3, r1\n  r3 = add r3, r2\n  r3 = add r3, r0\n")
	for i := 0; i < 22; i++ {
		b.WriteString("  r4 = add r4, 2\n")
	}
	b.WriteString("  jmp loop\ndone:\n  store out[r0], r1\n  print r1\n  print r2\n  print r3\n  print r4\n  ret r4\n}\n")
	return b.String()
}()

// TestDecodedEquivalence is the proof decode.go's header cites: the blend
// under all three modes with every small step bound and Kendo chunk, the
// add-run program at every step bound and Kendo chunks 1 to 100 (so a yield
// lands on each position of a folded run), every opcode, and every fault,
// equal on both paths in stats, outputs, retired counts, machine counters
// and error text.
func TestDecodedEquivalence(t *testing.T) {
	seeds := uint64(48)
	if testing.Short() {
		seeds = 8
	}
	steps := []int64{1, 2, 3, 7, 0}
	chunks := []int64{1, 3, 17, 0}
	for seed := uint64(1); seed <= seeds; seed++ {
		for i, md := range equivModes {
			threads := 2 + int(seed+uint64(i))%2
			m := equivProgram(seed, md.mode, threads)
			for j, ms := range steps {
				c := equivCell{
					mode: md.mode, policy: md.policy, threads: threads, maxCycles: ms,
					race: (seed+uint64(j))%3 == 0 && md.policy == sim.PolicyDet,
				}
				if md.mode == ModeKendo {
					c.chunk = chunks[(int(seed)+j)%len(chunks)]
				}
				if o := checkEquiv(t, fmt.Sprintf("seed %d", seed), m, c); o.Err != "" {
					t.Fatalf("seed %d %+v: %s", seed, c, o.Err)
				}
			}
		}
	}

	opcodes := ir.MustParse(opcodeSrc)
	for _, md := range equivModes {
		for _, ms := range steps {
			for _, ch := range chunks {
				c := equivCell{mode: md.mode, policy: md.policy, threads: 3, maxCycles: ms, chunk: ch}
				if o := checkEquiv(t, "opcodes", opcodes, c); o.Err != "" || len(o.Outputs) != 4 {
					t.Fatalf("opcodes %+v: err %q, %d threads", c, o.Err, len(o.Outputs))
				}
			}
		}
	}

	for _, f := range faultSrcs {
		m := ir.MustParse(f.src)
		if f.mutate != nil {
			f.mutate(m)
		}
		for _, md := range equivModes {
			c := equivCell{mode: md.mode, policy: md.policy, threads: 2, maxCycles: 2, chunk: 3, skip: f.skip}
			if md.policy == sim.PolicyDet {
				c.race, c.failFast = true, true
			} else if strings.HasSuffix(f.name, "race") { // FCFS runs arm no detector
				continue
			}
			if o := checkEquiv(t, f.name, m, c); o.Err == "" {
				t.Fatalf("%s %+v: no error", f.name, c)
			}
		}
	}

	runs := ir.MustParse(addRunSrc)
	if !foldsAddRuns(t, runs) {
		t.Fatal("the add-run program decodes without a dAddRun")
	}
	for _, md := range equivModes {
		for _, ms := range steps {
			chunks := []int64{0}
			if md.mode == ModeKendo {
				chunks = []int64{1, 3, 17, 100}
			}
			for _, ch := range chunks {
				c := equivCell{mode: md.mode, policy: md.policy, threads: 2, maxCycles: ms, chunk: ch}
				if o := checkEquiv(t, "add runs", runs, c); o.Err != "" || len(o.Outputs[0]) != 4 {
					t.Fatalf("add runs %+v: err %q, output %v", c, o.Err, o.Outputs)
				}
			}
		}
	}

	kb := ir.MustParse(kendoBuiltinSrc)
	for _, ms := range steps {
		for _, ch := range []int64{1, 3, 17, 100} {
			c := equivCell{mode: ModeKendo, policy: sim.PolicyDet, threads: 2, maxCycles: ms, chunk: ch}
			if o := checkEquiv(t, "kendo builtin", kb, c); o.Irq == 0 {
				t.Fatalf("kendo builtin %+v: no overflow interrupt", c)
			}
		}
	}
}

// foldsAddRuns reports whether m's main decodes to a stream holding a
// dAddRun, so the add-run cases cannot pass without exercising one.
func foldsAddRuns(t *testing.T, m *ir.Module) bool {
	t.Helper()
	mach, _, err := NewMachine(Config{Module: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range mach.decode(m.Func("main")).instrs {
		if d.op == dAddRun {
			return true
		}
	}
	return false
}

// FuzzDecodedEquivalence widens TestDecodedEquivalence's sweeps: any irgen
// seed, or the add-run program when runs is set, under any mode, step bound
// and Kendo chunk.
func FuzzDecodedEquivalence(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(seed), uint8(seed*5), false)
	}
	f.Add(uint64(0), uint8(1), uint8(5), uint8(13), true)
	f.Fuzz(func(t *testing.T, seed uint64, mode, step, chunk uint8, runs bool) {
		md := equivModes[int(mode)%len(equivModes)]
		threads := 1 + int(mode/3)%4
		var m *ir.Module
		if runs {
			m = ir.MustParse(addRunSrc)
		} else {
			m = equivProgram(seed, md.mode, threads)
		}
		c := equivCell{
			mode: md.mode, policy: md.policy, threads: threads,
			maxCycles: int64(step % 64), chunk: int64(chunk),
			race: mode&0x80 != 0 && md.policy == sim.PolicyDet,
		}
		checkEquiv(t, fmt.Sprintf("seed %d", seed), m, c)
	})
}
