package ir

import (
	"errors"
	"fmt"

	"repro/internal/diag"
)

// Bounds on a module's declared sizes, far above what the corpus, splash and
// irgen emit (at most 26 registers, 16 locks, 1 barrier). Registers are held
// per call frame and a thread holds up to 10,000 frames (the interpreters'
// call depth), so maxRegs keeps one thread's stack under 10,000 × 256 × 8 B,
// about 20 MB. maxGlobalWords bounds the words all of a module's globals
// declare together, 8 MB of machine memory: 126 times the most SPLASH, irgen
// or the corpus declare (volrend with the race probe, 8,264 words; an irgen
// program at most 272).
const (
	maxSyncObjects = 1 << 16
	maxRegs        = 256
	maxGlobalWords = 1 << 20
)

// countErr is a typed misuse for a count that is negative or above limit.
func countErr(what string, n, limit int64) error {
	if n >= 0 && n <= limit {
		return nil
	}
	return &diag.MisuseError{Op: "ir.Verify", ThreadID: -1, Kind: diag.ErrBadConfig,
		Detail: fmt.Sprintf("%s %d outside [0, %d]", what, n, limit)}
}

// Verify checks structural well-formedness of a module: every block has a
// terminator with targets inside its own function, registers are in range,
// load/store symbols resolve to globals, call targets resolve to functions or
// known builtin names, sync object ids are statically in range when they
// are immediates, and no declared count or size exceeds its bound.
//
// builtinOK reports whether an unresolved callee name is an acceptable
// builtin (nil means no builtins are allowed).
func (m *Module) Verify(builtinOK func(name string) bool) error {
	errs := []error{countErr("locks", int64(m.NumLocks), maxSyncObjects), countErr("barriers", int64(m.NumBars), maxSyncObjects)}
	// A name resolves to its first definition, as in Module.Func and Global.
	funcs, globals := make(map[string]*Func, len(m.Funcs)), make(map[string]bool, len(m.Globals))
	var words int64
	for _, g := range m.Globals {
		globals[g.Name] = true
		if g.Size < 0 || g.Size > maxGlobalWords {
			errs = append(errs, countErr("global "+g.Name+" size", g.Size, maxGlobalWords))
		} else {
			words += g.Size
		}
	}
	if words > maxGlobalWords {
		errs = append(errs, countErr("global words", words, maxGlobalWords))
	}
	for _, f := range m.Funcs {
		if funcs[f.Name] != nil {
			errs = append(errs, fmt.Errorf("duplicate function %q", f.Name))
			continue
		}
		funcs[f.Name] = f
	}
	for _, f := range m.Funcs {
		if err := m.verifyFunc(f, funcs, globals, builtinOK); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (m *Module) verifyFunc(f *Func, funcs map[string]*Func, globals map[string]bool, builtinOK func(string) bool) error {
	var errs []error
	bad := func(b *Block, format string, args ...any) {
		errs = append(errs, fmt.Errorf("%s.%s: %s", f.Name, b.Name, fmt.Sprintf(format, args...)))
	}
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	if err := countErr("regs", int64(f.NumRegs), maxRegs); err != nil {
		errs = append(errs, fmt.Errorf("%s: %w", f.Name, err))
	}
	if f.NumParams > f.NumRegs {
		errs = append(errs, fmt.Errorf("%s: %d params but only %d regs", f.Name, f.NumParams, f.NumRegs))
	}
	// A successor belongs to f exactly when f's block of that name is it.
	byName := make(map[string]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		if byName[b.Name] != nil {
			errs = append(errs, fmt.Errorf("%s: duplicate block name %q", f.Name, b.Name))
			continue
		}
		byName[b.Name] = b
	}
	checkOperand := func(b *Block, o Operand) {
		if !o.IsImm && (o.Reg < 0 || int(o.Reg) >= f.NumRegs) {
			bad(b, "register %d out of range [0,%d)", o.Reg, f.NumRegs)
		}
	}
	checkReg := func(b *Block, r Reg) {
		if r == NoReg {
			return
		}
		if r < 0 || int(r) >= f.NumRegs {
			bad(b, "dst register %d out of range [0,%d)", r, f.NumRegs)
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			switch {
			case ins.Op == OpConst:
				checkReg(b, ins.Dst)
			case ins.Op.IsUnary():
				checkReg(b, ins.Dst)
				checkOperand(b, ins.A)
			case ins.Op.IsBinary():
				checkReg(b, ins.Dst)
				checkOperand(b, ins.A)
				checkOperand(b, ins.B)
			case ins.Op == OpLoad:
				checkReg(b, ins.Dst)
				checkOperand(b, ins.A)
				if !globals[ins.Sym] {
					bad(b, "load of undefined global %q", ins.Sym)
				}
			case ins.Op == OpStore:
				checkOperand(b, ins.A)
				checkOperand(b, ins.B)
				if !globals[ins.Sym] {
					bad(b, "store to undefined global %q", ins.Sym)
				}
			case ins.Op == OpSpawn:
				checkReg(b, ins.Dst)
				for _, a := range ins.Args {
					checkOperand(b, a)
				}
				callee := funcs[ins.Callee]
				if callee == nil {
					bad(b, "spawn of undefined function %q", ins.Callee)
				} else if len(ins.Args) != callee.NumParams {
					bad(b, "spawn %s with %d args, wants %d", ins.Callee, len(ins.Args), callee.NumParams)
				}
			case ins.Op == OpJoin:
				checkOperand(b, ins.A)
			case ins.Op == OpCall:
				checkReg(b, ins.Dst)
				for _, a := range ins.Args {
					checkOperand(b, a)
				}
				callee := funcs[ins.Callee]
				if callee == nil {
					if builtinOK == nil || !builtinOK(ins.Callee) {
						bad(b, "call to undefined function %q", ins.Callee)
					}
				} else if len(ins.Args) != callee.NumParams {
					bad(b, "call %s with %d args, wants %d", ins.Callee, len(ins.Args), callee.NumParams)
				}
			case ins.Op == OpLock, ins.Op == OpUnlock:
				checkOperand(b, ins.A)
				if ins.A.IsImm && (ins.A.Imm < 0 || ins.A.Imm >= int64(m.NumLocks)) {
					bad(b, "lock id %d out of range [0,%d)", ins.A.Imm, m.NumLocks)
				}
			case ins.Op == OpBarrier:
				checkOperand(b, ins.A)
				if ins.A.IsImm && (ins.A.Imm < 0 || ins.A.Imm >= int64(m.NumBars)) {
					bad(b, "barrier id %d out of range [0,%d)", ins.A.Imm, m.NumBars)
				}
			case ins.Op == OpTid, ins.Op == OpNThreads:
				checkReg(b, ins.Dst)
			case ins.Op == OpPrint:
				checkOperand(b, ins.A)
			case ins.Op == OpClockAdd:
				if ins.Scale != 0 {
					checkOperand(b, ins.B)
				}
			default:
				bad(b, "unknown opcode %d", ins.Op)
			}
		}
		switch b.Term.Kind {
		case TermJmp:
			if len(b.Term.Succs) != 1 {
				bad(b, "jmp with %d successors", len(b.Term.Succs))
			}
		case TermBr:
			if len(b.Term.Succs) != 2 {
				bad(b, "br with %d successors", len(b.Term.Succs))
			}
			checkOperand(b, b.Term.Cond)
		case TermSwitch:
			if len(b.Term.Succs) != len(b.Term.Cases)+1 {
				bad(b, "switch with %d succs for %d cases", len(b.Term.Succs), len(b.Term.Cases))
			}
			checkOperand(b, b.Term.Cond)
		case TermRet:
			if len(b.Term.Succs) != 0 {
				bad(b, "ret with successors")
			}
			checkOperand(b, b.Term.Ret)
		default:
			bad(b, "missing terminator")
		}
		for _, s := range b.Term.Succs {
			if byName[s.Name] != s {
				bad(b, "successor %q belongs to another function", s.Name)
			}
		}
	}
	return errors.Join(errs...)
}
