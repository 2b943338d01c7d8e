package workload

import (
	"fmt"
	"sort"

	"repro/internal/detrand"
	"repro/internal/irgen"
)

// Program is one entry of a mix pool: a named, pre-rendered IR program ready
// to submit as a service request.
type Program struct {
	// Name identifies the program ("idiom/seed" or "generic/seed").
	Name string
	// Source is the textual IR the service parses.
	Source string
	// Threads is the simulated thread count the program was sized for.
	Threads int
}

// MixSpec parameterizes a job mix: relative weights per program family and
// the size of the distinct-program pool. A bounded pool is what makes
// ≥100k-job scenarios tractable — the service's content-addressed caches
// absorb repeats — while still exercising every family.
type MixSpec struct {
	// Name labels the mix in scenario tables.
	Name string
	// IdiomWeights is the relative draw weight per sync idiom; zero-weight
	// idioms are excluded.
	IdiomWeights map[irgen.Idiom]int
	// GenericWeight is the relative weight of plain irgen.Generate programs
	// (the arithmetic/branch/loop family without idiom structure).
	GenericWeight int
	// GenericSync makes the generic family include lock/barrier regions.
	GenericSync bool
	// PoolSize is the number of distinct programs to synthesize. Default 16.
	PoolSize int
	// Threads is the simulated thread count per program. Default 4.
	Threads int
	// Gen bounds program generation; zero value means irgen.Default().
	Gen irgen.Config
}

// DefaultMixes returns the standard mix suite: one mix per idiom family,
// one generic mix, and one blended mix drawing from everything.
func DefaultMixes() []MixSpec {
	mixes := []MixSpec{{Name: "generic", GenericWeight: 1, GenericSync: true}}
	for _, id := range irgen.Idioms() {
		mixes = append(mixes, MixSpec{Name: string(id), IdiomWeights: map[irgen.Idiom]int{id: 1}})
	}
	blend := MixSpec{Name: "blend", GenericWeight: 2, GenericSync: true, IdiomWeights: map[irgen.Idiom]int{}}
	for _, id := range irgen.Idioms() {
		blend.IdiomWeights[id] = 1
	}
	return append(mixes, blend)
}

// MixByName resolves a mix from the default suite.
func MixByName(name string) (MixSpec, error) {
	for _, m := range DefaultMixes() {
		if m.Name == name {
			return m, nil
		}
	}
	var names []string
	for _, m := range DefaultMixes() {
		names = append(names, m.Name)
	}
	return MixSpec{}, misuse("unknown mix %q (want one of %v)", name, names)
}

// Mix is a synthesized program pool plus the weighted pick table.
type Mix struct {
	Spec  MixSpec
	Progs []Program
}

// family is one weighted program source during synthesis.
type family struct {
	weight int
	gen    func(seed uint64) ( /* name */ string, /* source */ string)
}

// Synthesize builds the distinct-program pool for spec. All generation seeds
// come from the payload stream, all pool-slot family choices from the mix
// stream — so a different arrival shape (which consumes neither) can never
// change which programs exist.
func Synthesize(rng *PartitionedRNG, spec MixSpec) (*Mix, error) {
	if spec.PoolSize <= 0 {
		spec.PoolSize = 16
	}
	if spec.Threads <= 0 {
		spec.Threads = 4
	}
	zero := irgen.Config{}
	if spec.Gen == zero {
		spec.Gen = irgen.Default()
	}
	spec.Gen.Threads = spec.Threads

	var fams []family
	if spec.GenericWeight > 0 {
		cfg := spec.Gen
		cfg.WithSync = spec.GenericSync
		fams = append(fams, family{weight: spec.GenericWeight, gen: func(seed uint64) (string, string) {
			return fmt.Sprintf("generic/%d", seed), irgen.Generate(seed, cfg).String()
		}})
	}
	// Fixed idiom order keeps synthesis independent of map iteration.
	var ids []irgen.Idiom
	for id := range spec.IdiomWeights {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if w := spec.IdiomWeights[id]; w > 0 {
			id, cfg := id, spec.Gen
			fams = append(fams, family{weight: w, gen: func(seed uint64) (string, string) {
				return fmt.Sprintf("%s/%d", id, seed), irgen.GenerateIdiom(id, seed, cfg).String()
			}})
		}
	}
	if len(fams) == 0 {
		return nil, misuse("mix %q has no positive-weight family", spec.Name)
	}
	total := 0
	for _, f := range fams {
		total += f.weight
	}

	mixR, payR := rng.Stream(ClassMix), rng.Stream(ClassPayload)
	m := &Mix{Spec: spec}
	seen := map[string]bool{}
	for attempts := 0; len(m.Progs) < spec.PoolSize; attempts++ {
		if attempts > 10*spec.PoolSize+100 {
			return nil, misuse("mix %q: could not synthesize %d distinct programs", spec.Name, spec.PoolSize)
		}
		f := pickWeighted(mixR, fams, total)
		seed := payR.Next()%100000 + 1
		name, src := f.gen(seed)
		if seen[name] {
			continue
		}
		seen[name] = true
		m.Progs = append(m.Progs, Program{Name: name, Source: src, Threads: spec.Threads})
	}
	return m, nil
}

func pickWeighted(r *detrand.Rand, fams []family, total int) family {
	n := r.IntN(total)
	for _, f := range fams {
		if n < f.weight {
			return f
		}
		n -= f.weight
	}
	return fams[len(fams)-1]
}

// Pick draws one program for an arrival from the mix stream.
func (m *Mix) Pick(r *detrand.Rand) Program {
	return m.Progs[r.IntN(len(m.Progs))]
}
