package core

import "repro/internal/ir"

// Optimization 2b — lossy if-triangle shift (paper Figure 9).
//
// Pattern (paper Figure 10): an upper block (if.end21) branches to a middle
// block (lor.lhs.false23, "swSucc") and a merge block (if.then28, "endSucc");
// the middle block also reaches the merge block, and possibly other targets
// (for.inc). Merging the upper and lower clocks into a single update is then
// *not* precise: paths leaving through the middle block's other successor
// see a divergence equal to the moved clock. The paper admits the rewrite
// when that divergence is below one tenth of the affected path's clock.
//
// Direction: by default the lower block's clock moves *up* (charged ahead of
// time). It moves *down* instead when (a) the upper block sits at a higher
// loop depth — saving updates on the hotter path — or (b) the lower clock
// exceeds the upper and the middle block has multiple successors, where an
// upward move would diverge more.

// applyOpt2b runs one DFS pass of Optimization 2b over p.f.
func (p *passCtx) applyOpt2b() int {
	moves := 0
	visited := p.visited
	clear(visited)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if visited[b.Index] {
			return
		}
		visited[b.Index] = true
		if sw, end, ok := p.meetsOpt2bRequirements(b); ok {
			if p.modifyOpt2bClocks(b, sw, end) {
				moves++
			}
		}
		for _, s := range b.Term.Succs {
			walk(s)
		}
	}
	if p.f.Entry() != nil {
		walk(p.f.Entry())
	}
	return moves
}

// meetsOpt2bRequirements detects the triangle: b has exactly two distinct
// successors, one of which (sw) reaches the other (end) among its own
// successors; sw is reached only from b; end is reached only from b and sw;
// all three blocks are clockable; end is not a loop header.
func (p *passCtx) meetsOpt2bRequirements(b *ir.Block) (sw, end *ir.Block, ok bool) {
	if b.Unclockable {
		return nil, nil, false
	}
	succs := p.cfg.Succs[b.Index]
	if len(succs) != 2 {
		return nil, nil, false
	}
	preds, li := p.cfg.Preds, p.cfg.Loops
	try := func(mid, merge *ir.Block) bool {
		if mid == b || merge == b || mid == merge {
			return false
		}
		if mid.Unclockable || merge.Unclockable || li.IsHeader(merge) || li.IsHeader(mid) {
			return false
		}
		found := false
		for _, ms := range p.cfg.Succs[mid.Index] {
			if ms == merge {
				found = true
			}
		}
		if !found {
			return false
		}
		if len(preds[mid.Index]) != 1 {
			return false
		}
		for _, pr := range preds[merge.Index] {
			if pr != b && pr != mid {
				return false
			}
		}
		return true
	}
	if try(succs[0], succs[1]) {
		return succs[0], succs[1], true
	}
	if try(succs[1], succs[0]) {
		return succs[1], succs[0], true
	}
	return nil, nil, false
}

// modifyOpt2bClocks picks a direction, checks divergence, and moves the
// clock. Reports whether a move happened.
func (p *passCtx) modifyOpt2bClocks(upper, middle, lower *ir.Block) bool {
	li, middleSuccs := p.cfg.Loops, p.cfg.Succs[middle.Index]
	moveDown := false
	if li.Depth(upper) > li.Depth(lower) {
		moveDown = true
	} else if lower.Clock > upper.Clock && len(middleSuccs) > 1 {
		moveDown = true
	}
	var moved int64
	if moveDown {
		moved = upper.Clock
	} else {
		moved = lower.Clock
	}
	if moved == 0 {
		return false
	}
	// When the middle block's only successor is the merge, every path from
	// the upper block reaches the merge exactly once and the shift is
	// precise — the paper's "that optimization, like part a, would have been
	// precise" case — so no divergence test applies.
	precise := len(middleSuccs) == 1
	if !precise {
		// Divergence seen by paths that go upper→middle→(other successor):
		// they lose `moved` when it goes down, or gain it when it goes up,
		// relative to the clock of the whole affected path. Inside a loop
		// the affected path is the loop iteration (the paper's example
		// computes 1/93 against the full for.inc path, §IV-B2); otherwise
		// the triangle region itself.
		var pathClock int64
		if l := li.InnermostLoop(middle); l != nil {
			for _, b := range l.Blocks {
				pathClock += b.Clock
			}
		} else {
			pathClock = upper.Clock + middle.Clock + otherSuccClock(middleSuccs, lower)
		}
		if !moveDown {
			pathClock += moved
		}
		if pathClock <= 0 || float64(moved)/float64(pathClock) >= o2bMaxDivergence {
			return false
		}
	}
	if moveDown {
		lower.Clock += upper.Clock
		upper.Clock = 0
	} else {
		upper.Clock += lower.Clock
		lower.Clock = 0
	}
	return true
}

// otherSuccClock returns the clock of the middle block's non-merge successor
// (the escape path used in the divergence estimate); zero when the middle
// block only reaches the merge.
func otherSuccClock(middleSuccs []*ir.Block, merge *ir.Block) int64 {
	var c int64
	for _, s := range middleSuccs {
		if s != merge {
			c += s.Clock
		}
	}
	return c
}
