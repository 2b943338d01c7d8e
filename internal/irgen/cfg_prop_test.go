package irgen

import (
	"testing"

	"repro/internal/ir"
)

// CFG analysis properties checked over randomly generated programs: the
// dominator tree and loop detection feed every optimization, so they get
// independent property coverage here (irgen can import ir without cycles).

// reachable computes the blocks reachable from entry.
func reachable(f *ir.Func) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Term.Succs {
			dfs(s)
		}
	}
	if f.Entry() != nil {
		dfs(f.Entry())
	}
	return seen
}

// dominatesByRemoval is the definition of dominance: a dominates b iff
// removing a makes b unreachable from entry.
func dominatesByRemoval(f *ir.Func, a, b *ir.Block) bool {
	if a == b {
		return true
	}
	seen := map[*ir.Block]bool{a: true} // pretend a is removed
	var dfs func(x *ir.Block)
	dfs = func(x *ir.Block) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, s := range x.Term.Succs {
			dfs(s)
		}
	}
	dfs(f.Entry())
	return !seen[b] || b == a
}

func TestDominatorsMatchDefinition(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		m := Generate(seed, Default())
		for _, f := range m.Funcs {
			dt := ir.Analyze(f).Dom
			reach := reachable(f)
			for _, a := range f.Blocks {
				if !reach[a] {
					continue
				}
				for _, b := range f.Blocks {
					if !reach[b] {
						continue
					}
					want := dominatesByRemoval(f, a, b)
					got := dt.Dominates(a, b)
					if got != want {
						t.Fatalf("seed %d %s: Dominates(%s, %s) = %v, definition says %v",
							seed, f.Name, a.Name, b.Name, got, want)
					}
				}
			}
		}
	}
}

func TestEntryDominatesEverything(t *testing.T) {
	for seed := uint64(20); seed <= 40; seed++ {
		m := Generate(seed, Default())
		for _, f := range m.Funcs {
			dt := ir.Analyze(f).Dom
			reach := reachable(f)
			for _, b := range f.Blocks {
				if reach[b] && !dt.Dominates(f.Entry(), b) {
					t.Fatalf("seed %d %s: entry must dominate %s", seed, f.Name, b.Name)
				}
			}
		}
	}
}

func TestIdomIsStrictDominator(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := Generate(seed, Default())
		for _, f := range m.Funcs {
			dt := ir.Analyze(f).Dom
			for _, b := range f.Blocks {
				id := dt.Idom(b)
				if id == nil {
					continue
				}
				if id == b {
					t.Fatalf("seed %d: idom(%s) is itself", seed, b.Name)
				}
				if !dt.Dominates(id, b) {
					t.Fatalf("seed %d: idom(%s)=%s does not dominate it", seed, b.Name, id.Name)
				}
			}
		}
	}
}

func TestLoopHeadersDominateBodies(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := Generate(seed, Default())
		for _, f := range m.Funcs {
			cfg := ir.Analyze(f)
			dt, li := cfg.Dom, cfg.Loops
			for _, l := range li.Loops {
				for _, b := range l.Blocks {
					if !dt.Dominates(l.Header, b) {
						t.Fatalf("seed %d %s: header %s must dominate body %s",
							seed, f.Name, l.Header.Name, b.Name)
					}
				}
			}
			for _, be := range li.BackEdges {
				if !dt.Dominates(be.To, be.From) {
					t.Fatalf("seed %d: back edge target %s must dominate source %s",
						seed, be.To.Name, be.From.Name)
				}
			}
		}
	}
}

func TestGeneratedLoopsTerminate(t *testing.T) {
	// Reverse postorder must visit every reachable block exactly once (a
	// structural sanity check the interpreter relies on).
	for seed := uint64(1); seed <= 20; seed++ {
		m := Generate(seed, Default())
		for _, f := range m.Funcs {
			rpo := ir.Analyze(f).RPO
			reach := reachable(f)
			if len(rpo) != len(reach) {
				t.Fatalf("seed %d %s: rpo %d blocks, reachable %d",
					seed, f.Name, len(rpo), len(reach))
			}
			seen := map[*ir.Block]bool{}
			for _, b := range rpo {
				if seen[b] {
					t.Fatalf("seed %d: duplicate block in rpo", seed)
				}
				seen[b] = true
			}
		}
	}
}

func TestParserRoundTripsGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := Default()
		cfg.WithSync = seed%2 == 0
		m := Generate(seed, cfg)
		text := m.String()
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text)
		}
		if m2.String() != text {
			t.Fatalf("seed %d: round trip unstable", seed)
		}
	}
}
