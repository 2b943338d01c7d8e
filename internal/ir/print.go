package ir

import "strconv"

// Textual IR format. The printer and parser round-trip: Parse(m.String())
// reproduces an equivalent module. cmd/detviz uses the printer with clock
// annotations to reproduce the paper's Figures 3–13. The module text is also
// the service's result-cache content address, printed on every cache miss:
// everything renders by appending to one byte slice.

// String renders the module in the textual format.
func (m *Module) String() string {
	// Sized up front: names exactly (a block's is printed at its label and at
	// every edge into it), the rest at bytes per line that left the buffer
	// 2–35 % over on 600 generated programs. Short only costs a regrow.
	n := 64 + len(m.Name)
	for _, g := range m.Globals {
		n += 32 + len(g.Name) + 8*len(g.Init)
	}
	for _, f := range m.Funcs {
		n += 48 + len(f.Name) + 6*f.NumParams
		for _, b := range f.Blocks {
			n += 24 + len(b.Name) + 18*len(b.Instrs)
			for _, s := range b.Term.Succs {
				n += 6 + len(s.Name)
			}
		}
	}
	return string(m.appendText(make([]byte, 0, n)))
}

func (m *Module) appendText(buf []byte) []byte {
	buf = append(append(buf, "module "...), m.Name...)
	buf = append(buf, '\n')
	if m.NumLocks > 0 {
		buf = appendInt(append(buf, "locks "...), int64(m.NumLocks))
		buf = append(buf, '\n')
	}
	if m.NumBars > 0 {
		buf = appendInt(append(buf, "barriers "...), int64(m.NumBars))
		buf = append(buf, '\n')
	}
	for _, g := range m.Globals {
		buf = append(append(buf, "global "...), g.Name...)
		buf = appendInt(append(buf, ' '), g.Size)
		if len(g.Init) > 0 {
			buf = append(buf, " ="...)
			for i, v := range g.Init {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = appendInt(append(buf, ' '), v)
			}
		}
		buf = append(buf, '\n')
	}
	for _, f := range m.Funcs {
		buf = f.appendText(append(buf, '\n'))
	}
	return buf
}

// String renders one function.
func (f *Func) String() string { return string(f.appendText(nil)) }

func (f *Func) appendText(buf []byte) []byte {
	buf = append(append(buf, "func "...), f.Name...)
	buf = append(buf, '(')
	for i := 0; i < f.NumParams; i++ {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		buf = appendReg(buf, Reg(i))
	}
	buf = appendInt(append(buf, ") regs "...), int64(f.NumRegs))
	buf = append(buf, " {\n"...)
	for _, b := range f.Blocks {
		buf = b.appendText(buf)
	}
	return append(buf, "}\n"...)
}

// String renders one block with its clock annotation.
func (b *Block) String() string { return string(b.appendText(nil)) }

func (b *Block) appendText(buf []byte) []byte {
	buf = append(append(buf, b.Name...), ':')
	if b.Clock != 0 {
		buf = appendInt(append(buf, "    ; clock="...), b.Clock)
	}
	if b.Unclockable {
		buf = append(buf, "    ; unclockable"...)
	}
	buf = append(buf, '\n')
	for i := range b.Instrs {
		buf = b.Instrs[i].appendText(append(buf, "  "...))
		buf = append(buf, '\n')
	}
	// A block without a terminator prints as its bare label, which parses
	// back to the same block.
	if b.Term.unset() {
		return buf
	}
	buf = b.Term.appendText(append(buf, "  "...))
	return append(buf, '\n')
}

// String renders one instruction.
func (ins *Instr) String() string { return string(ins.appendText(nil)) }

func (ins *Instr) appendText(buf []byte) []byte {
	if ins.Op >= opMax {
		return append(append(buf, '?'), ins.Op.String()...)
	}
	if ins.Op.HasDst() && !(ins.Op == OpCall && ins.Dst == NoReg) {
		buf = append(appendReg(buf, ins.Dst), " = "...)
	}
	buf = append(buf, ins.Op.String()...)
	switch {
	case ins.Op == OpConst:
		return appendInt(append(buf, ' '), ins.A.Imm)
	case ins.Op.IsUnary(), ins.Op == OpJoin, ins.Op == OpLock, ins.Op == OpUnlock,
		ins.Op == OpBarrier, ins.Op == OpPrint:
		return ins.A.appendText(append(buf, ' '))
	case ins.Op.IsBinary():
		buf = ins.A.appendText(append(buf, ' '))
		return ins.B.appendText(append(buf, ", "...))
	case ins.Op == OpLoad:
		buf = append(append(append(buf, ' '), ins.Sym...), '[')
		return append(ins.A.appendText(buf), ']')
	case ins.Op == OpStore:
		buf = append(append(append(buf, ' '), ins.Sym...), '[')
		buf = append(ins.A.appendText(buf), "], "...)
		return ins.B.appendText(buf)
	case ins.Op == OpCall, ins.Op == OpSpawn:
		buf = append(append(append(buf, ' '), ins.Callee...), '(')
		for i, a := range ins.Args {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = a.appendText(buf)
		}
		return append(buf, ')')
	case ins.Op == OpClockAdd:
		buf = appendInt(append(buf, ' '), ins.A.Imm)
		if ins.Scale != 0 {
			buf = appendInt(append(buf, " + "...), ins.Scale)
			buf = ins.B.appendText(append(buf, '*'))
		}
	}
	return buf // tid, nthreads: no operands
}

// String renders the terminator.
func (t *Term) String() string { return string(t.appendText(nil)) }

func (t *Term) appendText(buf []byte) []byte {
	switch t.Kind {
	case TermJmp:
		return append(append(buf, "jmp "...), t.Succs[0].Name...)
	case TermBr:
		buf = t.Cond.appendText(append(buf, "br "...))
		buf = append(append(buf, ", "...), t.Succs[0].Name...)
		return append(append(buf, ", "...), t.Succs[1].Name...)
	case TermSwitch:
		buf = t.Cond.appendText(append(buf, "switch "...))
		buf = append(buf, ", ["...)
		for i, v := range t.Cases {
			if i > 0 {
				buf = append(buf, ", "...)
			}
			buf = append(appendInt(buf, v), ": "...)
			buf = append(buf, t.Succs[i].Name...)
		}
		return append(append(buf, "], "...), t.Succs[len(t.Cases)].Name...)
	case TermRet:
		return t.Ret.appendText(append(buf, "ret "...))
	}
	return append(buf, "?term"...)
}

// String renders the operand in assembly syntax.
func (o Operand) String() string { return string(o.appendText(nil)) }

func (o Operand) appendText(buf []byte) []byte {
	if o.IsImm {
		return appendInt(buf, o.Imm)
	}
	return appendReg(buf, o.Reg)
}

func appendReg(buf []byte, r Reg) []byte { return appendInt(append(buf, 'r'), int64(r)) }

func appendInt(buf []byte, v int64) []byte { return strconv.AppendInt(buf, v, 10) }
