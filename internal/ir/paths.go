package ir

import "errors"

// Path enumeration for the clockability analyses.
//
// Optimization 1 (Function Clocking) enumerates every entry→return path of a
// loop-free function and asks whether the accumulated clocks agree closely
// enough (core's isClockable criteria) to replace per-block updates with a
// single mean charged at the call site. Optimization 3 walks the region a
// block dominates in core itself, and shares Stats and MaxPaths.

// ErrTooManyPaths is returned when enumeration exceeds the configured limit;
// callers treat the region as not clockable.
var ErrTooManyPaths = errors.New("ir: path enumeration limit exceeded")

// ErrHasLoop is returned when the walked region contains a back edge.
var ErrHasLoop = errors.New("ir: region contains a loop")

// ErrUnclocked is returned when a path crosses a block whose clock cannot be
// summarized (a call to an unclocked function).
var ErrUnclocked = errors.New("ir: region contains an unclocked call")

// MaxPaths bounds path enumeration; functions with more control-flow paths
// than this are conservatively deemed not clockable.
const MaxPaths = 4096

// BlockClockFunc reports the clock contribution of a block, or ok=false when
// the block's contribution cannot be statically summarized.
type BlockClockFunc func(b *Block) (clock int64, ok bool)

// FunctionPathClocks enumerates all entry→return paths of f and returns the
// accumulated clock of each, using clockOf for per-block contributions.
// Fails with ErrHasLoop on cyclic CFGs, ErrUnclocked when clockOf rejects a
// reachable block, and ErrTooManyPaths past MaxPaths.
func FunctionPathClocks(f *Func, clockOf BlockClockFunc) ([]int64, error) {
	if f.Entry() == nil {
		return nil, errors.New("ir: empty function")
	}
	if f.HasLoops() {
		return nil, ErrHasLoop
	}
	return enumeratePaths(f.Entry(), clockOf)
}

func enumeratePaths(root *Block, clockOf BlockClockFunc) ([]int64, error) {
	var clocks []int64
	onStack := map[*Block]bool{}
	var walk func(b *Block, acc int64) error
	walk = func(b *Block, acc int64) error {
		if onStack[b] {
			return ErrHasLoop
		}
		c, ok := clockOf(b)
		if !ok {
			return ErrUnclocked
		}
		acc += c
		if b.Term.Kind == TermRet || len(b.Term.Succs) == 0 {
			clocks = append(clocks, acc)
			if len(clocks) > MaxPaths {
				return ErrTooManyPaths
			}
			return nil
		}
		onStack[b] = true
		defer delete(onStack, b)
		// Deduplicate successors (a branch with both arms to the same block
		// contributes one path continuation per distinct target).
		seen := map[*Block]bool{}
		for _, s := range b.Term.Succs {
			if seen[s] {
				continue
			}
			seen[s] = true
			if err := walk(s, acc); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	return clocks, nil
}

// ClockStats summarizes a set of path clocks.
type ClockStats struct {
	Mean   float64
	Std    float64
	Range  int64 // max - min
	Min    int64
	Max    int64
	NPaths int
}

// Stats computes mean, population standard deviation and range.
func Stats(clocks []int64) ClockStats {
	if len(clocks) == 0 {
		return ClockStats{}
	}
	st := ClockStats{Min: clocks[0], Max: clocks[0], NPaths: len(clocks)}
	var sum float64
	for _, c := range clocks {
		sum += float64(c)
		if c < st.Min {
			st.Min = c
		}
		if c > st.Max {
			st.Max = c
		}
	}
	st.Mean = sum / float64(len(clocks))
	var ss float64
	for _, c := range clocks {
		d := float64(c) - st.Mean
		ss += d * d
	}
	st.Std = sqrt(ss / float64(len(clocks)))
	st.Range = st.Max - st.Min
	return st
}

// sqrt is Newton's method on float64; avoids importing math in this package's
// hot path and keeps results deterministic across platforms for the small
// magnitudes involved.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		nz := 0.5 * (z + x/z)
		if nz == z {
			break
		}
		z = nz
	}
	return z
}
