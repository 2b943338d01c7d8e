package ir

import "slices"

// CFG analyses: predecessors, reverse postorder, dominator tree, natural
// loops and loop depth. These feed the DetLock optimizations: O2a needs
// predecessors/merge-node structure and loop headers, O2b needs loop depth,
// O3 needs dominance, O4 needs back edges.

// CFG holds every control-flow analysis of one function, each computed once
// by Analyze. It describes the block structure Analyze saw: clocks may move
// afterwards, blocks and edges may not.
type CFG struct {
	// Preds[i] lists the predecessors of block i, one entry per edge.
	Preds [][]*Block
	// Succs[i] lists the distinct successors of block i in terminator order.
	Succs [][]*Block
	// RPO lists the blocks reachable from entry in reverse postorder.
	RPO   []*Block
	Dom   *DomTree
	Loops *LoopInfo
}

// Analyze computes the CFG analyses of f.
func Analyze(f *Func) *CFG {
	f.reindex()
	n := len(f.Blocks)
	c := &CFG{Preds: make([][]*Block, n), Succs: make([][]*Block, n)}

	// Predecessor lists are carved out of one array sized by the edge count.
	deg := make([]int, n)
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs {
			deg[s.Index]++
			edges++
		}
	}
	back := make([]*Block, edges)
	for i, d := range deg {
		c.Preds[i], back = back[:0:d], back[d:]
	}
	for _, b := range f.Blocks {
		c.Succs[b.Index] = distinct(b.Term.Succs)
		for _, s := range b.Term.Succs {
			c.Preds[s.Index] = append(c.Preds[s.Index], b)
		}
	}

	seen := make([]bool, n)
	post := make([]*Block, 0, n)
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b.Index] = true
		for _, s := range b.Term.Succs {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(f.Blocks[0])
	}
	slices.Reverse(post)
	c.RPO = post

	c.Dom = newDomTree(n, c.RPO, c.Preds)
	c.Loops = newLoopInfo(f, c.Dom, c.Preds)
	return c
}

// distinct returns succs without repeats, in order: succs itself unless a
// branch or switch names a target twice.
func distinct(succs []*Block) []*Block {
	var out []*Block
	for i, s := range succs {
		switch dup := slices.Contains(succs[:i], s); {
		case dup && out == nil:
			out = append(out, succs[:i]...)
		case !dup && out != nil:
			out = append(out, s)
		}
	}
	if out == nil {
		return succs
	}
	return out
}

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	// idom[i] is the immediate dominator of block i (nil for entry and for
	// unreachable blocks).
	idom []*Block
	// rpoNum[i] is the reverse-postorder number of block i, or -1 if
	// unreachable.
	rpoNum []int
}

// newDomTree runs the Cooper–Harvey–Kennedy iterative algorithm over reverse
// postorder.
func newDomTree(n int, rpo []*Block, preds [][]*Block) *DomTree {
	dt := &DomTree{idom: make([]*Block, n), rpoNum: make([]int, n)}
	for i := range dt.rpoNum {
		dt.rpoNum[i] = -1
	}
	for i, b := range rpo {
		dt.rpoNum[b.Index] = i
	}
	if len(rpo) == 0 {
		return dt
	}
	entry := rpo[0]
	dt.idom[entry.Index] = entry // temporarily self, cleared below
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *Block
			for _, p := range preds[b.Index] {
				if dt.rpoNum[p.Index] < 0 || dt.idom[p.Index] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = dt.intersect(p, newIdom)
				}
			}
			if newIdom != nil && dt.idom[b.Index] != newIdom {
				dt.idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	dt.idom[entry.Index] = nil
	return dt
}

func (dt *DomTree) intersect(a, b *Block) *Block {
	for a != b {
		for dt.rpoNum[a.Index] > dt.rpoNum[b.Index] {
			a = dt.idom[a.Index]
		}
		for dt.rpoNum[b.Index] > dt.rpoNum[a.Index] {
			b = dt.idom[b.Index]
		}
	}
	return a
}

// Idom returns the immediate dominator of b (nil for the entry block).
func (dt *DomTree) Idom(b *Block) *Block { return dt.idom[b.Index] }

// Reachable reports whether b is reachable from the entry block.
func (dt *DomTree) Reachable(b *Block) bool { return dt.rpoNum[b.Index] >= 0 }

// Dominates reports whether a dominates b (reflexively).
func (dt *DomTree) Dominates(a, b *Block) bool {
	if !dt.Reachable(a) || !dt.Reachable(b) {
		return false
	}
	for b != nil {
		if a == b {
			return true
		}
		b = dt.idom[b.Index]
	}
	return false
}

// BackEdge is a CFG edge whose destination dominates its source.
type BackEdge struct {
	From, To *Block
}

// Loop is a natural loop: the header plus the body blocks.
type Loop struct {
	Header *Block
	// Blocks is the body, header first.
	Blocks []*Block
	in     []bool // membership by Block.Index
}

// Contains reports whether the loop body includes b.
func (l *Loop) Contains(b *Block) bool { return l.in[b.Index] }

func (l *Loop) add(b *Block) {
	l.in[b.Index] = true
	l.Blocks = append(l.Blocks, b)
}

// LoopInfo aggregates back edges, natural loops and per-block loop depth.
type LoopInfo struct {
	BackEdges []BackEdge
	Loops     []*Loop
	// depth[i] is the loop nesting depth of block i (0 = not in any loop).
	depth []int
	// header[i] is the loop block i heads, or nil.
	header []*Loop
}

// newLoopInfo detects natural loops via dominance-based back-edge detection.
func newLoopInfo(f *Func, dt *DomTree, preds [][]*Block) *LoopInfo {
	n := len(f.Blocks)
	li := &LoopInfo{depth: make([]int, n), header: make([]*Loop, n)}
	for _, b := range f.Blocks {
		if !dt.Reachable(b) {
			continue
		}
		for _, s := range b.Term.Succs {
			if dt.Dominates(s, b) {
				li.BackEdges = append(li.BackEdges, BackEdge{From: b, To: s})
			}
		}
	}
	// Merge back edges with the same header into one natural loop.
	var stack []*Block
	for _, be := range li.BackEdges {
		l := li.header[be.To.Index]
		if l == nil {
			l = &Loop{Header: be.To, in: make([]bool, n)}
			l.add(be.To)
			li.header[be.To.Index] = l
			li.Loops = append(li.Loops, l)
		}
		// Standard natural-loop body collection: walk predecessors back from
		// the latch until the header.
		if !l.Contains(be.From) {
			l.add(be.From)
			stack = append(stack, be.From)
		}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range preds[x.Index] {
				if !l.Contains(p) && dt.Reachable(p) {
					l.add(p)
					stack = append(stack, p)
				}
			}
		}
	}
	for _, l := range li.Loops {
		for _, b := range l.Blocks {
			li.depth[b.Index]++
		}
	}
	return li
}

// Depth returns b's loop nesting depth (0 when outside all loops).
func (li *LoopInfo) Depth(b *Block) int { return li.depth[b.Index] }

// IsHeader reports whether b is a natural-loop header.
func (li *LoopInfo) IsHeader(b *Block) bool { return li.header[b.Index] != nil }

// IsBackEdge reports whether from->to is a back edge.
func (li *LoopInfo) IsBackEdge(from, to *Block) bool {
	for _, be := range li.BackEdges {
		if be.From == from && be.To == to {
			return true
		}
	}
	return false
}

// InnermostLoop returns the smallest loop containing b, or nil.
func (li *LoopInfo) InnermostLoop(b *Block) *Loop {
	var best *Loop
	for _, l := range li.Loops {
		if l.Contains(b) && (best == nil || len(l.Blocks) < len(best.Blocks)) {
			best = l
		}
	}
	return best
}
