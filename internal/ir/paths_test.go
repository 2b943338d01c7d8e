package ir

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func clockFromField(b *Block) (int64, bool) {
	if b.Unclockable {
		return 0, false
	}
	return b.Clock, true
}

func TestFunctionPathClocksDiamond(t *testing.T) {
	_, f := buildDiamond(t)
	f.Block("entry").Clock = 2
	f.Block("then").Clock = 3
	f.Block("else").Clock = 5
	f.Block("merge").Clock = 1
	clocks, err := FunctionPathClocks(f, clockFromField)
	if err != nil {
		t.Fatalf("FunctionPathClocks: %v", err)
	}
	if len(clocks) != 2 {
		t.Fatalf("paths = %d, want 2", len(clocks))
	}
	sum := clocks[0] + clocks[1]
	if sum != (2+3+1)+(2+5+1) {
		t.Fatalf("path clocks %v", clocks)
	}
}

func TestFunctionPathClocksRejectsLoops(t *testing.T) {
	_, f := buildLoop(t)
	_, err := FunctionPathClocks(f, clockFromField)
	if !errors.Is(err, ErrHasLoop) {
		t.Fatalf("err = %v, want ErrHasLoop", err)
	}
}

func TestFunctionPathClocksRejectsUnclocked(t *testing.T) {
	_, f := buildDiamond(t)
	f.Block("else").Unclockable = true
	_, err := FunctionPathClocks(f, clockFromField)
	if !errors.Is(err, ErrUnclocked) {
		t.Fatalf("err = %v, want ErrUnclocked", err)
	}
}

func TestPathExplosionGuard(t *testing.T) {
	// Chain of k diamonds has 2^k paths; k=13 exceeds MaxPaths=4096.
	mb := NewModule("explode")
	fb := mb.Func("f")
	c := fb.Reg("c")
	for i := 0; i < 13; i++ {
		entry := blockName("d", i, "entry")
		then := blockName("d", i, "then")
		els := blockName("d", i, "else")
		merge := blockName("d", i, "merge")
		fb.Block(entry).Br(R(c), then, els)
		fb.Block(then).Jmp(merge)
		fb.Block(els).Jmp(merge)
		if i < 12 {
			fb.Block(merge).Jmp(blockName("d", i+1, "entry"))
		} else {
			fb.Block(merge).Ret(Imm(0))
		}
	}
	f := mb.M.Func("f")
	_, err := FunctionPathClocks(f, clockFromField)
	if !errors.Is(err, ErrTooManyPaths) {
		t.Fatalf("err = %v, want ErrTooManyPaths", err)
	}
}

func blockName(p string, i int, s string) string {
	return p + string(rune('a'+i)) + "." + s
}

func TestStats(t *testing.T) {
	st := Stats([]int64{37, 38, 38, 29})
	if st.Min != 29 || st.Max != 38 || st.Range != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.Mean-35.5) > 1e-9 {
		t.Fatalf("mean = %v", st.Mean)
	}
	// Population std of {37,38,38,29}: mean 35.5, deviations {1.5,2.5,2.5,-6.5}.
	want := math.Sqrt((1.5*1.5 + 2.5*2.5 + 2.5*2.5 + 6.5*6.5) / 4)
	if math.Abs(st.Std-want) > 1e-9 {
		t.Fatalf("std = %v, want %v", st.Std, want)
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil)
	if st.NPaths != 0 || st.Mean != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
}

func TestSqrtMatchesMath(t *testing.T) {
	f := func(x uint32) bool {
		v := float64(x) / 16.0
		got := sqrt(v)
		want := math.Sqrt(v)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: for loop-free CFGs built as chains of diamonds, the number of
// enumerated paths is 2^k and every path clock equals entry+merge chain sum
// plus one arm per diamond.
func TestPathEnumerationProperty(t *testing.T) {
	f := func(armsRaw []bool) bool {
		k := len(armsRaw)
		if k == 0 || k > 8 {
			return true // skip degenerate/explosive sizes
		}
		mb := NewModule("p")
		fb := mb.Func("f")
		c := fb.Reg("c")
		for i := 0; i < k; i++ {
			entry := blockName("d", i, "entry")
			then := blockName("d", i, "then")
			els := blockName("d", i, "else")
			merge := blockName("d", i, "merge")
			fb.Block(entry).Br(R(c), then, els)
			fb.Block(then).Jmp(merge)
			fb.Block(els).Jmp(merge)
			if i < k-1 {
				fb.Block(merge).Jmp(blockName("d", i+1, "entry"))
			} else {
				fb.Block(merge).Ret(Imm(0))
			}
		}
		fn := mb.M.Func("f")
		for i := 0; i < k; i++ {
			fn.Block(blockName("d", i, "then")).Clock = 1
			fn.Block(blockName("d", i, "else")).Clock = 2
		}
		clocks, err := FunctionPathClocks(fn, clockFromField)
		if err != nil {
			return false
		}
		if len(clocks) != 1<<k {
			return false
		}
		// Each path clock is between k (all then) and 2k (all else).
		for _, pc := range clocks {
			if pc < int64(k) || pc > int64(2*k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
