package ir

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse reads the textual IR format produced by Module.String. It is used by
// cmd/detlock to load .dir program files, by the service for every submitted
// program, and by round-trip tests. A cursor reads src once, front to back:
// next finds each line's end and comment with byte searches that never
// revisit a byte, and the line's first byte picks its production.
// Functions, blocks, instructions and the lists that point at blocks are
// carved out of slabs sized from the text.
func Parse(src string) (*Module, error) {
	// Sizes come from counts of single bytes, one vectorised pass each:
	// every function header holds a '{', every label a ':', and every
	// instruction a line besides its block's label and terminator. For a
	// printed program they bound the counts from above, within a few
	// percent. A text that outgrows a slab gets another chunk; one of
	// nothing but newlines or colons buys at most firstChunk of each.
	funcs := min(strings.Count(src, "{"), firstChunk)
	colons := min(strings.Count(src, ":"), firstChunk)
	instrs := min(strings.Count(src, "\n")-2*colons, firstChunk)
	scratch := make([]*Block, 2*colons)
	p := &parser{
		src:    src,
		semi:   -1,
		blocks: make(map[string]*Block, colons),
		fwd:    scratch[:0:colons],
		placed: scratch[colons:colons],
		chunk:  make([]Instr, 0, max(instrs, 16)),
		funcs:  slab[Func]{next: max(funcs, 1)},
		slab:   slab[Block]{next: max(colons, 4)},
		ptrs:   slab[*Block]{next: max(2*colons+colons/2, 8)},
	}
	m := &Module{}
	if funcs > 0 {
		m.Funcs = make([]*Func, 0, funcs)
	}
	return p.parseModule(m)
}

// firstChunk caps the size of a slab's first chunk estimated from the text.
const firstChunk = 1 << 10

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
	semi int // offset of the next ';' (len(src) if none), sought again once off passes it

	globals map[string]*Global // the module's globals by name
	// blocks holds every block by name; one of an earlier function counts
	// as absent, so the map is never cleared.
	blocks map[string]*Block
	fwd    []*Block // the current function's blocks in order of first mention
	placed []*Block // ... and in label order
	// Instruction lists are carved out of chunks shared by consecutive
	// blocks: chunk[start:] is the open block's list so far, handed to the
	// block when it closes.
	chunk []Instr
	start int
	// Functions, blocks, and the Succs and Blocks lists that point at
	// blocks, are carved out of slabs.
	funcs slab[Func]
	slab  slab[Block]
	ptrs  slab[*Block]
	// maxReg is the current function's highest destination register so far
	// (to begin with, its declared count less one).
	maxReg Reg
}

// slab hands out pieces of chunks it allocates, as interp's race detector
// does: the parser sizes the first chunk to the text, each later one
// doubles. Pieces are never returned; the slab dies with its module.
type slab[T any] struct {
	free []T
	next int // size of the next chunk
}

// carve returns a zeroed piece of length and capacity n: an append to one
// piece cannot reach the next.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, s.next))
		s.next *= 2
	}
	piece := s.free[:n:n]
	s.free = s.free[n:]
	return piece
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

// reg parses a register number, the digits after 'r'.
func reg(s string) (Reg, bool) {
	n, err := strconv.Atoi(s)
	return Reg(n), err == nil && n == int(Reg(n))
}

// next returns the next significant line (comment cut at the first ';',
// blanks trimmed), or "" at EOF. The cursor finds each newline with one
// IndexByte from the line's start and keeps the offset of the next ';', so
// every byte is searched once for each.
func (p *parser) next() string {
	src := p.src
	// The text after the last newline is a line too, even when empty.
	for p.off <= len(src) {
		end := len(src)
		if i := strings.IndexByte(src[p.off:], '\n'); i >= 0 {
			end = p.off + i
		}
		if p.semi < p.off {
			p.semi = len(src)
			if i := strings.IndexByte(src[p.off:], ';'); i >= 0 {
				p.semi = p.off + i
			}
		}
		ln := src[p.off:min(end, p.semi)]
		p.off = end + 1
		p.line++
		if ln = strings.TrimSpace(ln); ln != "" {
			return ln
		}
	}
	return ""
}

func (p *parser) parseModule(m *Module) (*Module, error) {
	ln := p.next()
	name, ok := strings.CutPrefix(ln, "module ")
	if !ok {
		return nil, p.errf("expected 'module <name>', got %q", ln)
	}
	m.Name = strings.TrimSpace(name)
	for {
		ln = p.next()
		if ln == "" {
			return m, nil
		}
		var err error
		if rest, ok := strings.CutPrefix(ln, "locks "); ok {
			m.NumLocks, err = p.count("locks", rest)
		} else if rest, ok := strings.CutPrefix(ln, "barriers "); ok {
			m.NumBars, err = p.count("barriers", rest)
		} else if rest, ok := strings.CutPrefix(ln, "global "); ok {
			err = p.parseGlobal(m, ln, rest)
		} else if rest, ok := strings.CutPrefix(ln, "func "); ok {
			var f *Func
			f, err = p.parseFunc(m, ln, rest)
			m.Funcs = append(m.Funcs, f)
		} else {
			err = p.errf("unexpected line %q", ln)
		}
		if err != nil {
			return nil, err
		}
	}
}

// count parses the number of a "locks N", "barriers N" or "regs N" line.
func (p *parser) count(what, tok string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(tok))
	if err != nil {
		return 0, p.errf("bad %s count: %v", what, err)
	}
	return n, nil
}

// integer parses a signed decimal token; what names it in the error.
func (p *parser) integer(what, tok string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
	if err != nil {
		return 0, p.errf("bad %s: %v", what, err)
	}
	return v, nil
}

func (p *parser) parseGlobal(m *Module, ln, rest string) error {
	rest, initPart, _ := strings.Cut(rest, "=")
	initPart = strings.TrimSpace(initPart)
	fields := strings.Fields(rest)
	if len(fields) != 2 {
		return p.errf("global wants 'global <name> <size>', got %q", ln)
	}
	size, err := p.integer("global size", fields[1])
	if err != nil {
		return err
	}
	// As Module.AddGlobal: a repeated name resizes the first definition.
	g := p.globals[fields[0]]
	if g == nil {
		if p.globals == nil {
			p.globals = map[string]*Global{}
		}
		g = &Global{Name: fields[0], Size: size}
		p.globals[g.Name] = g
		m.Globals = append(m.Globals, g)
	} else if size > g.Size {
		g.Size = size
	}
	if initPart != "" {
		g.Init = slices.Grow(g.Init, strings.Count(initPart, ",")+1)
	}
	for more := initPart != ""; more; {
		var tok string
		tok, initPart, more = strings.Cut(initPart, ",")
		v, err := p.integer("global initializer", tok)
		if err != nil {
			return err
		}
		g.Init = append(g.Init, v)
	}
	return nil
}

// block returns the current function's block of that name, creating it,
// unplaced, if this is its first mention.
func (p *parser) block(f *Func, name string) *Block {
	b := p.blocks[name]
	if b == nil || b.Func != f {
		b = &p.slab.carve(1)[0]
		b.Name, b.Func, b.Index = name, f, -1
		p.blocks[name] = b
		p.fwd = append(p.fwd, b)
	}
	return b
}

// instr appends a zero instruction to the open block's list and returns it
// for the caller to fill in.
func (p *parser) instr() *Instr {
	if len(p.chunk) == cap(p.chunk) {
		// Chunk full: the open block's list moves to the head of a new one
		// with room for as many again, or for this instruction and one on
		// every line left in the text if that is fewer.
		open := p.chunk[p.start:]
		n := 1
		if p.off < len(p.src) {
			n += strings.Count(p.src[p.off:], "\n") + 1
		}
		p.chunk = append(make([]Instr, 0, len(open)+min(n, cap(p.chunk))), open...)
		p.start = 0
	}
	p.chunk = p.chunk[:len(p.chunk)+1]
	return &p.chunk[len(p.chunk)-1]
}

// close hands the open block its instruction list, capped so that an
// append to it cannot reach the next block's.
func (p *parser) close(cur *Block) {
	if cur != nil && len(p.chunk) > p.start {
		cur.Instrs = p.chunk[p.start:len(p.chunk):len(p.chunk)]
	}
	p.start = len(p.chunk)
}

// parseFunc parses "func name(r0, r1) regs N {" through the closing "}";
// rest is the header after "func ".
func (p *parser) parseFunc(m *Module, header, rest string) (*Func, error) {
	open := strings.IndexByte(rest, '(')
	close := strings.IndexByte(rest, ')')
	if open < 0 || close < open {
		return nil, p.errf("bad func header %q", header)
	}
	f := &p.funcs.carve(1)[0]
	f.Name, f.Module = strings.TrimSpace(rest[:open]), m
	if strings.TrimSpace(rest[open+1:close]) != "" {
		f.NumParams = strings.Count(rest[open+1:close], ",") + 1
	}
	rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest[close+1:]), "{"))
	if n, ok := strings.CutPrefix(rest, "regs "); ok {
		var err error
		if f.NumRegs, err = p.count("regs", n); err != nil {
			return nil, err
		}
	} else {
		f.NumRegs = f.NumParams
	}

	// Blocks are placed in label order (not first-mention order) so that
	// printing round-trips; a target with no label of its own goes after
	// them, for verification to report as an unterminated block.
	p.fwd, p.placed = p.fwd[:0], p.placed[:0]
	var cur *Block
	p.maxReg = Reg(f.NumRegs - 1)
	for {
		ln := p.next()
		if ln == "" {
			return nil, p.errf("unexpected EOF in func %s", f.Name)
		}
		if ln == "}" {
			p.close(cur)
			break
		}
		if ln[len(ln)-1] == ':' {
			p.close(cur)
			name := ln[:len(ln)-1]
			cur = p.block(f, name)
			if cur.Index >= 0 {
				return nil, p.errf("duplicate block label %q", name)
			}
			cur.Index = len(p.placed)
			p.placed = append(p.placed, cur)
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
			b.Index = len(p.placed)
			p.placed = append(p.placed, b)
		}
	}
	f.Blocks = p.ptrs.carve(len(p.placed))
	copy(f.Blocks, p.placed)
	if int(p.maxReg)+1 > f.NumRegs {
		f.NumRegs = int(p.maxReg) + 1
	}
	return f, nil
}

// operand parses "r3" or "-17".
func (p *parser) operand(tok string) (Operand, error) {
	tok = strings.TrimSpace(tok)
	if len(tok) > 0 && tok[0] == 'r' {
		if r, ok := reg(tok[1:]); ok {
			return R(r), nil
		}
	} else if v, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return Imm(v), nil
	}
	return Operand{}, p.errf("bad operand %q", tok)
}

// succs returns a successor list of the blocks named, carved from the slab.
func (p *parser) succs(f *Func, names ...string) []*Block {
	s := p.ptrs.carve(len(names))
	for i, name := range names {
		s[i] = p.block(f, strings.TrimSpace(name))
	}
	return s
}

// parseLine parses one instruction or terminator line into cur. A line
// that is not a destination instruction starts with its mnemonic, and a
// destination instruction with its register, so the first byte narrows each
// line to at most two productions.
func (p *parser) parseLine(f *Func, cur *Block, ln string) error {
	var op Op
	rest := ln
	switch ln[0] {
	case 'j':
		if name, ok := strings.CutPrefix(ln, "jmp "); ok {
			cur.Term = Term{Kind: TermJmp, Succs: p.succs(f, name)}
			return nil
		}
		op, rest = OpJoin, strings.TrimPrefix(ln, "join ")
	case 'b':
		if args, ok := strings.CutPrefix(ln, "br "); ok {
			condTok, targets, _ := strings.Cut(args, ",")
			then, els, ok := strings.Cut(targets, ",")
			if !ok || strings.IndexByte(els, ',') >= 0 {
				return p.errf("br wants 'br cond, then, else': %q", ln)
			}
			cond, err := p.operand(condTok)
			if err != nil {
				return err
			}
			cur.Term = Term{Kind: TermBr, Cond: cond, Succs: p.succs(f, then, els)}
			return nil
		}
		op, rest = OpBarrier, strings.TrimPrefix(ln, "barrier ")
	case 'r':
		if args, ok := strings.CutPrefix(ln, "ret"); ok {
			ret := Imm(0)
			if args = strings.TrimSpace(args); args != "" {
				var err error
				if ret, err = p.operand(args); err != nil {
					return err
				}
			}
			cur.Term = Term{Kind: TermRet, Ret: ret}
			return nil
		}
		return p.parseAssign(ln)
	case 's':
		if args, ok := strings.CutPrefix(ln, "switch "); ok {
			return p.parseSwitch(f, cur, ln, args)
		}
		if args, ok := strings.CutPrefix(ln, "store "); ok {
			sym, idx, after, err := p.indexed(args, "store wants 'store sym[idx], val'", ln)
			if err != nil {
				return err
			}
			val, err := p.operand(strings.TrimPrefix(strings.TrimSpace(after), ","))
			if err != nil {
				return err
			}
			in := p.instr()
			in.Op, in.Sym, in.A, in.B = OpStore, sym, idx, val
			return nil
		}
	case 'c':
		if args, ok := strings.CutPrefix(ln, "clockadd "); ok {
			return p.parseClockAdd(args)
		}
		if args, ok := strings.CutPrefix(ln, "call "); ok {
			return p.parseCall(OpCall, NoReg, args)
		}
	case 'l':
		op, rest = OpLock, strings.TrimPrefix(ln, "lock ")
	case 'u':
		op, rest = OpUnlock, strings.TrimPrefix(ln, "unlock ")
	case 'p':
		op, rest = OpPrint, strings.TrimPrefix(ln, "print ")
	}
	// A one-operand instruction: "<mnemonic> <operand>".
	if len(rest) == len(ln) {
		return p.errf("unrecognized instruction %q", ln)
	}
	a, err := p.operand(rest)
	if err != nil {
		return err
	}
	in := p.instr()
	in.Op, in.A = op, a
	return nil
}

// indexed parses the "sym[idx]" of a load or store and returns what follows
// the ']'; usage words the error for a line without one.
func (p *parser) indexed(args, usage, ln string) (sym string, idx Operand, after string, err error) {
	ob := strings.IndexByte(args, '[')
	cb := strings.IndexByte(args, ']')
	if ob < 0 || cb < ob {
		return "", idx, "", p.errf("%s: %q", usage, ln)
	}
	idx, err = p.operand(args[ob+1 : cb])
	return strings.TrimSpace(args[:ob]), idx, args[cb+1:], err
}

// textOps are the unary and binary ops, OpMov through OpGE, by name.
var textOps = func() map[string]Op {
	m := make(map[string]Op, OpGE)
	for op := OpMov; op <= OpGE; op++ {
		m[opNames[op]] = op
	}
	return m
}()

// parseAssign parses a destination instruction, "rN = <rhs>"; ln begins
// with its 'r'.
func (p *parser) parseAssign(ln string) error {
	eq := strings.IndexByte(ln, '=')
	if eq < 0 {
		return p.errf("unrecognized instruction %q", ln)
	}
	dstTok := strings.TrimSpace(ln[:eq])
	dst, ok := reg(dstTok[1:])
	if !ok {
		return p.errf("bad register %q", dstTok)
	}
	if dst > p.maxReg {
		p.maxReg = dst
	}
	rhs := strings.TrimSpace(ln[eq+1:])
	word, args, spaced := strings.Cut(rhs, " ")
	if !spaced {
		switch rhs {
		case "tid":
			in := p.instr()
			in.Op, in.Dst = OpTid, dst
			return nil
		case "nthreads":
			in := p.instr()
			in.Op, in.Dst = OpNThreads, dst
			return nil
		}
		return p.errf("unrecognized rhs %q", rhs)
	}
	switch word {
	case "const":
		v, err := p.integer("const", args)
		if err != nil {
			return err
		}
		in := p.instr()
		in.Op, in.Dst, in.A = OpConst, dst, Imm(v)
		return nil
	case "load":
		sym, idx, _, err := p.indexed(args, "load wants 'load sym[idx]'", ln)
		if err != nil {
			return err
		}
		in := p.instr()
		in.Op, in.Dst, in.Sym, in.A = OpLoad, dst, sym, idx
		return nil
	case "call":
		return p.parseCall(OpCall, dst, args)
	case "spawn":
		return p.parseCall(OpSpawn, dst, args)
	}
	op, ok := textOps[word]
	if !ok {
		return p.errf("unknown op %q", word)
	}
	aTok, bTok, two := strings.Cut(args, ",")
	a, err := p.operand(aTok)
	if err != nil {
		return err
	}
	if op.IsUnary() {
		if two {
			return p.errf("%s wants one operand", op)
		}
		in := p.instr()
		in.Op, in.Dst, in.A = op, dst, a
		return nil
	}
	if !two || strings.IndexByte(bTok, ',') >= 0 {
		return p.errf("%s wants two operands", op)
	}
	b, err := p.operand(bTok)
	if err != nil {
		return err
	}
	in := p.instr()
	in.Op, in.Dst, in.A, in.B = op, dst, a, b
	return nil
}

// parseCall parses the "fn(args)" of a call or spawn; rest follows the
// mnemonic.
func (p *parser) parseCall(op Op, dst Reg, rest string) error {
	ob := strings.IndexByte(rest, '(')
	cb := strings.LastIndexByte(rest, ')')
	if ob < 0 || cb < ob {
		return p.errf("call wants 'call fn(args)': %q", rest)
	}
	var args []Operand
	if argstr := strings.TrimSpace(rest[ob+1 : cb]); argstr != "" {
		args = make([]Operand, 0, strings.Count(argstr, ",")+1)
		for more := true; more; {
			var tok string
			tok, argstr, more = strings.Cut(argstr, ",")
			a, err := p.operand(tok)
			if err != nil {
				return err
			}
			args = append(args, a)
		}
	}
	in := p.instr()
	in.Op, in.Dst, in.Callee, in.Args = op, dst, strings.TrimSpace(rest[:ob]), args
	return nil
}

// parseClockAdd parses "35" or "35 + 4*r2".
func (p *parser) parseClockAdd(rest string) error {
	ins := Instr{Op: OpClockAdd}
	if base, dyn, ok := strings.Cut(rest, "+"); ok {
		v, err := p.integer("clockadd base", base)
		if err != nil {
			return err
		}
		dyn = strings.TrimSpace(dyn)
		scale, b, ok := strings.Cut(dyn, "*")
		if !ok {
			return p.errf("clockadd dynamic term wants 'k*rN': %q", dyn)
		}
		if ins.Scale, err = p.integer("clockadd scale", scale); err != nil {
			return err
		}
		if ins.B, err = p.operand(b); err != nil {
			return err
		}
		ins.A = Imm(v)
	} else {
		v, err := p.integer("clockadd amount", rest)
		if err != nil {
			return err
		}
		ins.A = Imm(v)
	}
	*p.instr() = ins
	return nil
}

// parseSwitch parses "switch cond, [v: blk, ...], default"; rest is the line
// after "switch ".
func (p *parser) parseSwitch(f *Func, cur *Block, ln, rest string) error {
	rest = strings.TrimSpace(rest)
	ob := strings.IndexByte(rest, '[')
	cb := strings.IndexByte(rest, ']')
	if ob < 0 || cb < ob {
		return p.errf("switch wants 'switch cond, [v: blk, ...], default': %q", ln)
	}
	cond, err := p.operand(strings.TrimSuffix(strings.TrimSpace(rest[:ob]), ","))
	if err != nil {
		return err
	}
	t := Term{Kind: TermSwitch, Cond: cond}
	inner := strings.TrimSpace(rest[ob+1 : cb])
	n := 0
	if inner != "" {
		n = strings.Count(inner, ",") + 1
		t.Cases = make([]int64, 0, n)
	}
	t.Succs = p.ptrs.carve(n + 1)
	for i := 0; i < n; i++ {
		var pair string
		pair, inner, _ = strings.Cut(inner, ",")
		val, target, ok := strings.Cut(pair, ":")
		if !ok || strings.IndexByte(target, ':') >= 0 {
			return p.errf("switch case wants 'v: blk': %q", pair)
		}
		v, err := p.integer("switch case value", val)
		if err != nil {
			return err
		}
		t.Cases = append(t.Cases, v)
		t.Succs[i] = p.block(f, strings.TrimSpace(target))
	}
	def := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest[cb+1:]), ","))
	if def == "" {
		return p.errf("switch missing default target: %q", ln)
	}
	t.Succs[n] = p.block(f, def)
	cur.Term = t
	return nil
}
