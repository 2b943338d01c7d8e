package core

// Optimization 4 — Loops (paper §IV-D).
//
// Loop increment blocks (the `for.inc` of a rotated loop) execute once per
// iteration right before jumping back to the header. When such a back-edge
// source has a small clock — below the threshold and below the header's
// clock — its clock is merged into the header and its update removed: the
// header charges it at the start of the next iteration instead, eliminating
// one update per iteration. The move is slightly imprecise (the header also
// runs for the final, failing iteration test), which is why the threshold
// keeps it to small blocks.

// applyOpt4 runs Optimization 4 on p.f; returns the number of merges.
func (p *passCtx) applyOpt4() int {
	moves := 0
	for _, be := range p.cfg.Loops.BackEdges {
		src, hdr := be.From, be.To
		if src == hdr { // self loop: nothing to merge into
			continue
		}
		if src.Unclockable || hdr.Unclockable {
			continue
		}
		if src.Clock <= 0 {
			continue
		}
		if src.Clock >= p.opt.O4Threshold {
			continue
		}
		if src.Clock >= hdr.Clock {
			continue
		}
		hdr.Clock += src.Clock
		src.Clock = 0
		moves++
	}
	return moves
}
