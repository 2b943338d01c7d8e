package interp

// The decoded dispatch loop (stepFast) against the tree-walking oracle
// (Config.Reference), on programs the SPLASH property never reaches: every
// decoded opcode, every yield position inside a fused add run, and every
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
// one builtin call, between fused add pairs.
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

// TestDecodedEquivalence is the proof decode.go's header cites: the blend
// under all three modes with every small step bound and Kendo chunk (so a
// yield lands on each position of a fused add run), every opcode, and every
// fault, equal on both paths in stats, outputs, retired counts, machine
// counters and error text.
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

// FuzzDecodedEquivalence widens TestDecodedEquivalence's blend sweep: any
// irgen seed, mode, step bound and Kendo chunk.
func FuzzDecodedEquivalence(f *testing.F) {
	for seed := uint64(1); seed <= 6; seed++ {
		f.Add(seed, uint8(seed), uint8(seed), uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode, step, chunk uint8) {
		md := equivModes[int(mode)%len(equivModes)]
		threads := 1 + int(mode/3)%4
		m := equivProgram(seed, md.mode, threads)
		c := equivCell{
			mode: md.mode, policy: md.policy, threads: threads,
			maxCycles: int64(step % 64), chunk: int64(chunk),
			race: mode&0x80 != 0 && md.policy == sim.PolicyDet,
		}
		checkEquiv(t, fmt.Sprintf("seed %d", seed), m, c)
	})
}
