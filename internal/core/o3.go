package core

import "repro/internal/ir"

// Optimization 3 — Averaging of Clocks (paper Figure 11).
//
// A specialized Function Clocking applied inside a function: for a branch
// block, enumerate the clocks of all paths through the region it dominates —
// stopping at back edges, at blocks with unclocked calls, and below merge
// nodes with successors not dominated by the region root. If the paths agree
// under the isClockable criteria, the root is assigned the mean and every
// block the paths touched loses its clock. The search then resumes from the
// successors of the touched blocks.

// applyOpt3 runs Optimization 3 over p.f; returns the number of regions
// averaged.
func (p *passCtx) applyOpt3() int {
	if p.f.Entry() == nil {
		return 0
	}
	moves := 0
	visited := p.visited
	clear(visited)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if visited[b.Index] {
			return
		}
		visited[b.Index] = true
		if p.meetsOpt3Requirements(b) {
			// The region's blocks sit on top of p.touched while the walk
			// resumes below it: a nested region pushes and pops above them.
			base := len(p.touched)
			clocks, ok := p.opt3PathClocks(b)
			end := len(p.touched)
			var st ir.ClockStats // of no paths: meets no criteria
			if ok && end-base > 1 {
				st = ir.Stats(clocks)
			}
			if meetsCriteria(st) {
				p.regions++
				id := p.regions
				for _, tb := range p.touched[base:end] {
					tb.Clock = 0
					p.region[tb.Index] = id
				}
				b.Clock = int64(st.Mean)
				moves++
				// Resume from successors of touched blocks outside the
				// region (Figure 11, lines 13-16).
				for i := base; i < end; i++ {
					tb := p.touched[i]
					visited[tb.Index] = true
					for _, s := range tb.Term.Succs {
						if p.region[s.Index] != id {
							walk(s)
						}
					}
				}
				p.touched = p.touched[:base]
				return
			}
			p.touched = p.touched[:base]
		}
		for _, s := range b.Term.Succs {
			walk(s)
		}
	}
	walk(p.f.Entry())
	return moves
}

// meetsOpt3Requirements: the region root must be a clockable branch block
// (averaging a straight line is Optimization 2a's job) and not a loop
// header, whose region would include its own back edge.
func (p *passCtx) meetsOpt3Requirements(b *ir.Block) bool {
	if b.Unclockable || p.cfg.Loops.IsHeader(b) {
		return false
	}
	return len(p.cfg.Succs[b.Index]) >= 2
}

// opt3PathClocks enumerates region path clocks from root. A path extends
// into a successor only when the successor is dominated by root, is not
// reached via a back edge, and is clockable; otherwise the path ends at the
// current block (inclusive). Returns the path clocks, in scratch the next
// call reuses, and pushes each block included in any path onto p.touched.
func (p *passCtx) opt3PathClocks(root *ir.Block) ([]int64, bool) {
	dt, li := p.cfg.Dom, p.cfg.Loops
	base := len(p.touched)
	clocks := p.clocks[:0]
	ok := true
	var walk func(b *ir.Block, acc int64)
	walk = func(b *ir.Block, acc int64) {
		if !ok {
			return
		}
		acc += b.Clock
		if !p.pushed[b.Index] {
			p.pushed[b.Index] = true
			p.touched = append(p.touched, b)
		}
		if len(clocks) > ir.MaxPaths {
			ok = false
			return
		}
		// Decide which successors the path may continue into.
		succs := p.cfg.Succs[b.Index]
		first := len(p.next)
		for _, s := range succs {
			if li.IsBackEdge(b, s) {
				continue // stop at back edges
			}
			if li.IsHeader(s) {
				// Entering a loop: the body would execute once per
				// iteration but the averaged clock charges it once — stop
				// before the header (the paper's "stop when we see
				// backedges" must hold dynamically, not just lexically).
				continue
			}
			if !dt.Dominates(root, s) {
				continue // stop below merge nodes escaping the region
			}
			if s.Unclockable {
				continue // stop before unclocked calls
			}
			if p.onStack[s.Index] {
				continue // irreducible cycle guard
			}
			p.next = append(p.next, s)
		}
		last := len(p.next)
		if b.Term.Kind == ir.TermRet || last == first {
			clocks = append(clocks, acc)
			return
		}
		// If some successors were cut off, those continuations end here too.
		if last-first < len(succs) {
			clocks = append(clocks, acc)
		}
		p.onStack[b.Index] = true
		for i := first; i < last; i++ {
			walk(p.next[i], acc)
		}
		p.onStack[b.Index] = false
		p.next = p.next[:first]
	}
	walk(root, 0)
	p.clocks = clocks
	for _, tb := range p.touched[base:] {
		p.pushed[tb.Index] = false
	}
	return clocks, ok
}
