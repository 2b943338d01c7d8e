package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual IR format produced by Module.String. It is used by
// cmd/detlock to load .dir program files, by the service for every submitted
// program, and by round-trip tests. It reads src once, front to back.
func Parse(src string) (*Module, error) {
	p := &parser{src: src, globals: map[string]*Global{}, blocks: map[string]*Block{}}
	return p.parseModule()
}

// MustParse parses src and panics on error; for tests and embedded programs.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return m
}

type parser struct {
	src  string
	off  int // offset in src of the next unread line
	line int // number of the last line read, from 1

	globals map[string]*Global // the module's globals by name
	blocks  map[string]*Block  // the current function's blocks by name
	fwd     []*Block           // ... and in order of first mention
	// Instruction lists are carved out of chunks shared by consecutive
	// blocks: chunk[start:] is the open block's list so far.
	chunk []Instr
	start int
	// maxReg is the current function's highest destination register so far
	// (to begin with, its declared count less one).
	maxReg Reg
}

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string {
	return fmt.Sprintf("ir: parse error at line %d: %s", e.line, e.msg)
}

func (p *parser) errf(format string, args ...any) error {
	return &parseError{line: p.line, msg: fmt.Sprintf(format, args...)}
}

// next returns the next significant line (comments and blanks stripped),
// or "" at EOF.
func (p *parser) next() string {
	// The text after the last newline is a line too, even when empty.
	for p.off <= len(p.src) {
		ln := p.src[p.off:]
		if i := strings.IndexByte(ln, '\n'); i >= 0 {
			ln = ln[:i]
		}
		p.off += len(ln) + 1
		p.line++
		if i := strings.IndexByte(ln, ';'); i >= 0 {
			ln = ln[:i]
		}
		ln = strings.TrimSpace(ln)
		if ln != "" {
			return ln
		}
	}
	return ""
}

func (p *parser) parseModule() (*Module, error) {
	m := &Module{}
	ln := p.next()
	if !strings.HasPrefix(ln, "module ") {
		return nil, p.errf("expected 'module <name>', got %q", ln)
	}
	m.Name = strings.TrimSpace(strings.TrimPrefix(ln, "module "))
	for {
		ln = p.next()
		if ln == "" {
			break
		}
		switch {
		case strings.HasPrefix(ln, "locks "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(ln, "locks ")))
			if err != nil {
				return nil, p.errf("bad locks count: %v", err)
			}
			m.NumLocks = n
		case strings.HasPrefix(ln, "barriers "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(ln, "barriers ")))
			if err != nil {
				return nil, p.errf("bad barriers count: %v", err)
			}
			m.NumBars = n
		case strings.HasPrefix(ln, "global "):
			if err := p.parseGlobal(m, ln); err != nil {
				return nil, err
			}
		case strings.HasPrefix(ln, "func "):
			f, err := p.parseFunc(m, ln)
			if err != nil {
				return nil, err
			}
			m.Funcs = append(m.Funcs, f)
		default:
			return nil, p.errf("unexpected line %q", ln)
		}
	}
	return m, nil
}

func (p *parser) parseGlobal(m *Module, ln string) error {
	rest := strings.TrimPrefix(ln, "global ")
	var initPart string
	if i := strings.Index(rest, "="); i >= 0 {
		initPart = strings.TrimSpace(rest[i+1:])
		rest = strings.TrimSpace(rest[:i])
	}
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return p.errf("global wants 'global <name> <size>', got %q", ln)
	}
	size, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return p.errf("bad global size: %v", err)
	}
	// As Module.AddGlobal: a repeated name resizes the first definition.
	g := p.globals[fields[0]]
	if g == nil {
		g = &Global{Name: fields[0], Size: size}
		p.globals[g.Name] = g
		m.Globals = append(m.Globals, g)
	} else if size > g.Size {
		g.Size = size
	}
	for more := initPart != ""; more; {
		var tok string
		tok, initPart, more = strings.Cut(initPart, ",")
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return p.errf("bad global initializer: %v", err)
		}
		g.Init = append(g.Init, v)
	}
	return nil
}

// block returns the current function's block of that name, creating it,
// unplaced, if this is its first mention.
func (p *parser) block(f *Func, name string) *Block {
	b := p.blocks[name]
	if b == nil {
		b = &Block{Name: name, Func: f, Index: -1}
		p.blocks[name] = b
		p.fwd = append(p.fwd, b)
	}
	return b
}

// emit appends ins to the open block cur.
func (p *parser) emit(cur *Block, ins Instr) {
	if len(p.chunk) == cap(p.chunk) {
		// Chunk full: the open block's list moves to the head of a new one
		// of 128 instructions, or enough to double the list.
		open := p.chunk[p.start:]
		p.chunk = append(make([]Instr, 0, max(128, 2*len(open))), open...)
		p.start = 0
	}
	p.chunk = append(p.chunk, ins)
	// Capped, so that an append to this list cannot reach the next block's.
	cur.Instrs = p.chunk[p.start:len(p.chunk):len(p.chunk)]
}

// parseFunc parses "func name(r0, r1) regs N {" through the closing "}".
func (p *parser) parseFunc(m *Module, header string) (*Func, error) {
	open := strings.Index(header, "(")
	close := strings.Index(header, ")")
	if open < 0 || close < open {
		return nil, p.errf("bad func header %q", header)
	}
	f := &Func{Name: strings.TrimSpace(header[len("func "):open]), Module: m}
	params := strings.TrimSpace(header[open+1 : close])
	if params != "" {
		f.NumParams = strings.Count(params, ",") + 1
	}
	rest := strings.TrimSpace(header[close+1:])
	rest = strings.TrimSuffix(rest, "{")
	rest = strings.TrimSpace(rest)
	if strings.HasPrefix(rest, "regs ") {
		n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(rest, "regs ")))
		if err != nil {
			return nil, p.errf("bad regs count: %v", err)
		}
		f.NumRegs = n
	} else {
		f.NumRegs = f.NumParams
	}

	// Blocks are placed in label order (not first-mention order) so that
	// printing round-trips; a target with no label of its own goes after
	// them, for verification to report as an unterminated block.
	clear(p.blocks)
	p.fwd = p.fwd[:0]
	var cur *Block
	p.maxReg = Reg(f.NumRegs - 1)
	for {
		ln := p.next()
		if ln == "" {
			return nil, p.errf("unexpected EOF in func %s", f.Name)
		}
		if ln == "}" {
			break
		}
		if strings.HasSuffix(ln, ":") {
			name := strings.TrimSuffix(ln, ":")
			cur = p.block(f, name)
			if cur.Index >= 0 {
				return nil, p.errf("duplicate block label %q", name)
			}
			cur.Index = len(f.Blocks)
			f.Blocks = append(f.Blocks, cur)
			p.start = len(p.chunk)
			continue
		}
		if cur == nil {
			return nil, p.errf("instruction before first block label: %q", ln)
		}
		if !cur.Term.unset() {
			return nil, p.errf("block %q already has its terminator: %q", cur.Name, ln)
		}
		if err := p.parseLine(f, cur, ln); err != nil {
			return nil, err
		}
	}
	for _, b := range p.fwd {
		if b.Index < 0 {
			b.Index = len(f.Blocks)
			f.Blocks = append(f.Blocks, b)
		}
	}
	if int(p.maxReg)+1 > f.NumRegs {
		f.NumRegs = int(p.maxReg) + 1
	}
	return f, nil
}

// parseOperand parses "r3" or "-17".
func (p *parser) parseOperand(tok string) (Operand, error) {
	tok = strings.TrimSpace(tok)
	if strings.HasPrefix(tok, "r") {
		n, err := strconv.Atoi(tok[1:])
		if err == nil {
			return R(Reg(n)), nil
		}
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return Operand{}, p.errf("bad operand %q", tok)
	}
	return Imm(v), nil
}

func (p *parser) parseReg(tok string) (Reg, error) {
	tok = strings.TrimSpace(tok)
	if !strings.HasPrefix(tok, "r") {
		return 0, p.errf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil {
		return 0, p.errf("bad register %q", tok)
	}
	return Reg(n), nil
}

var textOps = map[string]Op{
	"mov": OpMov, "add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv,
	"mod": OpMod, "and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl,
	"shr": OpShr, "neg": OpNeg, "not": OpNot, "eq": OpEQ, "ne": OpNE,
	"lt": OpLT, "le": OpLE, "gt": OpGT, "ge": OpGE,
}

// oneOperandOps are the instructions written "<mnemonic> <operand>".
var oneOperandOps = [...]struct {
	prefix string
	op     Op
}{{"lock ", OpLock}, {"unlock ", OpUnlock}, {"barrier ", OpBarrier}, {"join ", OpJoin}, {"print ", OpPrint}}

// parseLine parses one instruction or terminator line into cur.
func (p *parser) parseLine(f *Func, cur *Block, ln string) error {
	// Terminators.
	switch {
	case strings.HasPrefix(ln, "jmp "):
		cur.Term = Term{Kind: TermJmp, Succs: []*Block{p.block(f, strings.TrimSpace(ln[4:]))}}
		return nil
	case strings.HasPrefix(ln, "br "):
		condTok, rest, _ := strings.Cut(ln[3:], ",")
		then, els, ok := strings.Cut(rest, ",")
		if !ok || strings.Contains(els, ",") {
			return p.errf("br wants 'br cond, then, else': %q", ln)
		}
		cond, err := p.parseOperand(condTok)
		if err != nil {
			return err
		}
		cur.Term = Term{Kind: TermBr, Cond: cond, Succs: []*Block{
			p.block(f, strings.TrimSpace(then)),
			p.block(f, strings.TrimSpace(els)),
		}}
		return nil
	case strings.HasPrefix(ln, "switch "):
		return p.parseSwitch(f, cur, ln)
	case strings.HasPrefix(ln, "ret"):
		rest := strings.TrimSpace(strings.TrimPrefix(ln, "ret"))
		ret := Imm(0)
		if rest != "" {
			var err error
			ret, err = p.parseOperand(rest)
			if err != nil {
				return err
			}
		}
		cur.Term = Term{Kind: TermRet, Ret: ret}
		return nil
	}

	// Non-destination instructions.
	switch {
	case strings.HasPrefix(ln, "store "):
		rest := ln[len("store "):]
		ob := strings.Index(rest, "[")
		cb := strings.Index(rest, "]")
		if ob < 0 || cb < ob {
			return p.errf("store wants 'store sym[idx], val': %q", ln)
		}
		sym := strings.TrimSpace(rest[:ob])
		idx, err := p.parseOperand(rest[ob+1 : cb])
		if err != nil {
			return err
		}
		after := strings.TrimSpace(rest[cb+1:])
		after = strings.TrimPrefix(after, ",")
		val, err := p.parseOperand(after)
		if err != nil {
			return err
		}
		p.emit(cur, Instr{Op: OpStore, Sym: sym, A: idx, B: val})
		return nil
	case strings.HasPrefix(ln, "clockadd "):
		return p.parseClockAdd(cur, ln[9:])
	case strings.HasPrefix(ln, "call "):
		ins, err := p.parseCall(NoReg, ln[5:])
		if err != nil {
			return err
		}
		p.emit(cur, ins)
		return nil
	}

	for _, u := range oneOperandOps {
		if rest, ok := strings.CutPrefix(ln, u.prefix); ok {
			a, err := p.parseOperand(rest)
			if err != nil {
				return err
			}
			p.emit(cur, Instr{Op: u.op, A: a})
			return nil
		}
	}

	// Destination instructions: "rN = ...".
	eq := strings.Index(ln, "=")
	if eq < 0 {
		return p.errf("unrecognized instruction %q", ln)
	}
	dst, err := p.parseReg(ln[:eq])
	if err != nil {
		return err
	}
	if dst > p.maxReg {
		p.maxReg = dst
	}
	rhs := strings.TrimSpace(ln[eq+1:])
	switch {
	case strings.HasPrefix(rhs, "const "):
		v, err := strconv.ParseInt(strings.TrimSpace(rhs[6:]), 10, 64)
		if err != nil {
			return p.errf("bad const: %v", err)
		}
		p.emit(cur, Instr{Op: OpConst, Dst: dst, A: Imm(v)})
		return nil
	case rhs == "tid":
		p.emit(cur, Instr{Op: OpTid, Dst: dst})
		return nil
	case rhs == "nthreads":
		p.emit(cur, Instr{Op: OpNThreads, Dst: dst})
		return nil
	case strings.HasPrefix(rhs, "load "):
		rest := rhs[5:]
		ob := strings.Index(rest, "[")
		cb := strings.Index(rest, "]")
		if ob < 0 || cb < ob {
			return p.errf("load wants 'load sym[idx]': %q", ln)
		}
		idx, err := p.parseOperand(rest[ob+1 : cb])
		if err != nil {
			return err
		}
		p.emit(cur, Instr{Op: OpLoad, Dst: dst, Sym: strings.TrimSpace(rest[:ob]), A: idx})
		return nil
	case strings.HasPrefix(rhs, "call "):
		ins, err := p.parseCall(dst, rhs[5:])
		if err != nil {
			return err
		}
		p.emit(cur, ins)
		return nil
	case strings.HasPrefix(rhs, "spawn "):
		ins, err := p.parseCall(dst, rhs[6:])
		if err != nil {
			return err
		}
		ins.Op = OpSpawn
		p.emit(cur, ins)
		return nil
	}
	// Unary/binary mnemonics.
	sp := strings.Index(rhs, " ")
	if sp < 0 {
		return p.errf("unrecognized rhs %q", rhs)
	}
	op, ok := textOps[rhs[:sp]]
	if !ok {
		return p.errf("unknown op %q", rhs[:sp])
	}
	aTok, bTok, two := strings.Cut(rhs[sp+1:], ",")
	a, err := p.parseOperand(aTok)
	if err != nil {
		return err
	}
	if op.IsUnary() {
		if two {
			return p.errf("%s wants one operand", op)
		}
		p.emit(cur, Instr{Op: op, Dst: dst, A: a})
		return nil
	}
	if !two || strings.Contains(bTok, ",") {
		return p.errf("%s wants two operands", op)
	}
	b, err := p.parseOperand(bTok)
	if err != nil {
		return err
	}
	p.emit(cur, Instr{Op: op, Dst: dst, A: a, B: b})
	return nil
}

func (p *parser) parseCall(dst Reg, rest string) (Instr, error) {
	ob := strings.Index(rest, "(")
	cb := strings.LastIndex(rest, ")")
	if ob < 0 || cb < ob {
		return Instr{}, p.errf("call wants 'call fn(args)': %q", rest)
	}
	ins := Instr{Op: OpCall, Dst: dst, Callee: strings.TrimSpace(rest[:ob])}
	argstr := strings.TrimSpace(rest[ob+1 : cb])
	if argstr != "" {
		ins.Args = make([]Operand, 0, strings.Count(argstr, ",")+1)
		for more := true; more; {
			var tok string
			tok, argstr, more = strings.Cut(argstr, ",")
			a, err := p.parseOperand(tok)
			if err != nil {
				return Instr{}, err
			}
			ins.Args = append(ins.Args, a)
		}
	}
	return ins, nil
}

// parseClockAdd parses "35" or "35 + 4*r2".
func (p *parser) parseClockAdd(cur *Block, rest string) error {
	rest = strings.TrimSpace(rest)
	ins := Instr{Op: OpClockAdd}
	if i := strings.Index(rest, "+"); i >= 0 {
		base, err := strconv.ParseInt(strings.TrimSpace(rest[:i]), 10, 64)
		if err != nil {
			return p.errf("bad clockadd base: %v", err)
		}
		dyn := strings.TrimSpace(rest[i+1:])
		star := strings.Index(dyn, "*")
		if star < 0 {
			return p.errf("clockadd dynamic term wants 'k*rN': %q", dyn)
		}
		scale, err := strconv.ParseInt(strings.TrimSpace(dyn[:star]), 10, 64)
		if err != nil {
			return p.errf("bad clockadd scale: %v", err)
		}
		b, err := p.parseOperand(dyn[star+1:])
		if err != nil {
			return err
		}
		ins.A = Imm(base)
		ins.B = b
		ins.Scale = scale
	} else {
		v, err := strconv.ParseInt(rest, 10, 64)
		if err != nil {
			return p.errf("bad clockadd amount: %v", err)
		}
		ins.A = Imm(v)
	}
	p.emit(cur, ins)
	return nil
}

func (p *parser) parseSwitch(f *Func, cur *Block, ln string) error {
	rest := strings.TrimSpace(ln[len("switch "):])
	ob := strings.Index(rest, "[")
	cb := strings.Index(rest, "]")
	if ob < 0 || cb < ob {
		return p.errf("switch wants 'switch cond, [v: blk, ...], default': %q", ln)
	}
	condTok := strings.TrimSuffix(strings.TrimSpace(rest[:ob]), ",")
	cond, err := p.parseOperand(condTok)
	if err != nil {
		return err
	}
	t := Term{Kind: TermSwitch, Cond: cond}
	inner := strings.TrimSpace(rest[ob+1 : cb])
	if inner != "" {
		n := strings.Count(inner, ",") + 1
		t.Cases, t.Succs = make([]int64, 0, n), make([]*Block, 0, n+1)
		for more := true; more; {
			var pair string
			pair, inner, more = strings.Cut(inner, ",")
			val, target, ok := strings.Cut(pair, ":")
			if !ok || strings.Contains(target, ":") {
				return p.errf("switch case wants 'v: blk': %q", pair)
			}
			v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return p.errf("bad switch case value: %v", err)
			}
			t.Cases = append(t.Cases, v)
			t.Succs = append(t.Succs, p.block(f, strings.TrimSpace(target)))
		}
	}
	def := strings.TrimSpace(rest[cb+1:])
	def = strings.TrimPrefix(def, ",")
	def = strings.TrimSpace(def)
	if def == "" {
		return p.errf("switch missing default target: %q", ln)
	}
	t.Succs = append(t.Succs, p.block(f, def))
	cur.Term = t
	return nil
}
