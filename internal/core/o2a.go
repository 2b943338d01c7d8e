package core

import "repro/internal/ir"

// Optimization 2a — precise conditional-block rearrangement (paper Figure 6).
//
// Two rewrites, both exact (every entry→exit path keeps its total clock):
//
//   - Condition node: a block with two or more successors, each of which has
//     it as sole predecessor, absorbs the minimum successor clock: the min is
//     subtracted from every successor and added to the parent. This both
//     eliminates updates (a successor reaching zero loses its clockadd) and
//     moves clock charging earlier.
//
//   - Merge node: if all predecessors of a merge block have that merge block
//     as their only successor, the merge block's clock is pushed up into the
//     predecessors (cascading upward while the shape repeats). Loop headers
//     are excluded — pushing a header's clock into the latch would charge it
//     on the wrong iteration.
//
// The function-level driver repeats the DFS until a pass makes no change,
// matching APPLYOPT2A's modified loop.

// applyOpt2a runs Optimization 2a on p.f; returns the number of clock moves.
func (p *passCtx) applyOpt2a() int {
	moves := 0
	visited := p.visited
	for iter := 0; iter < maxOptIterations; iter++ {
		clear(visited)
		modified := false
		var walk func(b *ir.Block)
		walk = func(b *ir.Block) {
			if visited[b.Index] {
				return
			}
			visited[b.Index] = true
			if p.meetsOpt2aCondNodeRequirements(b) {
				succs := p.cfg.Succs[b.Index]
				least := succs[0].Clock
				for _, s := range succs[1:] {
					least = min(least, s.Clock)
				}
				if least > 0 {
					b.Clock += least
					for _, s := range succs {
						s.Clock -= least
					}
					modified = true
					moves++
				}
			} else if p.meetsOpt2aMergeNodeRequirements(b) {
				if b.Clock > 0 {
					modified = true
					moves++
				}
				p.pushClockUp(b)
			}
			for _, s := range b.Term.Succs {
				walk(s)
			}
		}
		if p.f.Entry() != nil {
			walk(p.f.Entry())
		}
		if !modified {
			break
		}
	}
	return moves
}

// maxOptIterations is a defensive bound on optimization fixpoint loops.
const maxOptIterations = 1000

// meetsOpt2aCondNodeRequirements checks the condition-node shape: at least
// two distinct successors, each reached only from b (so b dominates them and
// they are not merge blocks), no unclocked calls anywhere involved, and no
// self loops.
func (p *passCtx) meetsOpt2aCondNodeRequirements(b *ir.Block) bool {
	if b.Unclockable {
		return false
	}
	succs := p.cfg.Succs[b.Index]
	if len(succs) < 2 {
		return false
	}
	for _, s := range succs {
		if s == b || s.Unclockable {
			return false
		}
		if len(p.cfg.Preds[s.Index]) != 1 {
			return false // merge block: not dominated solely through b
		}
	}
	return true
}

// meetsOpt2aMergeNodeRequirements checks the merge-node shape: two or more
// predecessors, each of which has b as its only successor, none unclockable,
// and b is not a loop header.
func (p *passCtx) meetsOpt2aMergeNodeRequirements(b *ir.Block) bool {
	if b.Unclockable || p.cfg.Loops.IsHeader(b) {
		return false
	}
	bp := p.cfg.Preds[b.Index]
	if len(bp) < 2 {
		return false
	}
	for _, pr := range bp {
		if pr == b || pr.Unclockable {
			return false
		}
		ds := p.cfg.Succs[pr.Index]
		if len(ds) != 1 || ds[0] != b {
			return false
		}
	}
	return true
}

// pushClockUp implements PUSHCLOCKUP (Figure 6, lines 24-34): move the merge
// block's clock into every predecessor, cascading upward while predecessors
// themselves meet the merge-node shape.
func (p *passCtx) pushClockUp(b *ir.Block) {
	clock := b.Clock
	if clock == 0 {
		return
	}
	b.Clock = 0
	for _, pr := range p.cfg.Preds[b.Index] {
		pr.Clock += clock
		if p.meetsOpt2aMergeNodeRequirements(pr) {
			p.pushClockUp(pr)
		}
	}
}
