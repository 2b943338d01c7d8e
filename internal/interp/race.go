package interp

// Deterministic data-race detection for the weak-determinism contract.
//
// DetLock (like Kendo) guarantees a reproducible lock order only for
// race-free programs: one unsynchronized conflicting access silently voids
// the guarantee. The detector below turns that silent state into a typed,
// reproducible diag.RaceError. It is a FastTrack-style happens-before
// checker — per-thread vector clocks advanced at the engine's
// synchronization events (lock acquire/release, barrier, spawn/join) and a
// 48-byte shadow cell per touched global word that remembers an access as
// two pointers, the accessor's snapshot of that sync epoch and the IR site —
// with a lockset pre-filter: two accesses that share a held lock are
// serialized by that lock's critical sections, and the release→acquire
// clock join orders them.
//
// Because the engine itself is deterministic, detection is too: unlike a
// native race detector, the same program produces the *same* RaceError —
// same access pair, same logical clocks, same locksets — on every run, even
// under physical-timing perturbation (Config.JitterSeed), which the
// property tests exploit. Reports are canonicalized (pair ordered by thread
// id, one report per address) so they are diffable artifacts.

import (
	"fmt"
	"slices"

	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/sim"
)

// RacePolicy selects what happens when a race is detected.
type RacePolicy uint8

// Race policies.
const (
	// RaceFailFast aborts the run at the first race: the simulation returns
	// the *diag.RaceError.
	RaceFailFast RacePolicy = iota
	// RaceReport records races (deterministically capped at MaxReports) and
	// lets the run finish; read them from Machine.Races.
	RaceReport
)

// RaceConfig enables and tunes the detector.
type RaceConfig struct {
	Policy RacePolicy
	// MaxReports caps collected reports under RaceReport (further races are
	// counted, not stored). 0 means the default of 100.
	MaxReports int
	// Reference disables the FastTrack-style same-epoch fast path, forcing
	// the full lockset/vector-clock comparison on every access. Reports are
	// byte-identical either way (the fast path only skips re-deriving
	// conclusions the slow path already reached in the same sync epoch);
	// the equivalence property tests run both.
	Reference bool
}

// raceSite is the immutable IR position of one load or store. Decoded
// streams carry theirs (daux.site, shared across machines); the tree-walking
// path interns one per *ir.Instr in RaceDetector.sites. Formatting waits for
// report time, so the hot path does no string work.
type raceSite struct {
	sym   string
	fn    *ir.Func
	block *ir.Block
	pc    int32 // instruction index within block
}

// raceSnap is one thread's happens-before state during one sync epoch — the
// stretch between two observer hooks that touch the thread. Only the hooks
// write vcs[t] and locksets[t], and every hook that does drops cur[t], so a
// snapshot is immutable from the moment it is built and every access the
// thread makes in the epoch can share it: two epochs of one thread compare
// equal as pointers iff vector clock and lockset are those of the same epoch.
type raceSnap struct {
	tid int
	// clock is the thread's own component, vc[tid], kept inline for the check.
	clock int64
	// vc is carved from RaceDetector.words; only reports read past clock.
	vc []int64
	// lockset is shared with the detector's intern tables, sorted ascending.
	lockset []int
}

// raceEpoch is one remembered access in the shadow memory: who and when
// (snap), and where in the program (site).
type raceEpoch struct {
	snap *raceSnap
	site *raceSite
}

// shadowCell is the per-address detector state: the last write (snap nil
// until there is one) plus the reads concurrent with it, one entry per
// thread, carved from RaceDetector.reads.
type shadowCell struct {
	write raceEpoch
	reads []raceEpoch
	// poisoned suppresses further reports for this address: one race per
	// address keeps reports canonical and bounded.
	poisoned bool
}

// slab hands out pieces of chunks it allocates: the detector sizes the first
// chunk to the program, each later one doubles up to 1024 entries. Pieces are
// never returned; the slab dies with its detector.
type slab[T any] struct {
	free []T
	next int // size of the next chunk
}

// carve returns a zeroed piece of length and capacity n.
func (s *slab[T]) carve(n int) []T {
	if n > len(s.free) {
		s.free = make([]T, max(n, s.next))
		s.next = min(2*s.next, 1024)
	}
	piece := s.free[:n:n]
	s.free = s.free[n:]
	return piece
}

// A shadow page covers 32 words (1.5 kB of cells).
const (
	shadowShift = 5
	shadowMask  = 1<<shadowShift - 1
)

// RaceDetector tracks happens-before across one machine's threads. It
// implements sim.SyncObserver; the engine drives the clock updates, the
// interpreter drives the access checks.
type RaceDetector struct {
	cfg RaceConfig

	// vcs[t] is thread t's vector clock; vcs[t][t] is its epoch.
	vcs [][]int64
	// locksets[t] is thread t's held-lock set, sorted ascending, nil when
	// empty. Sets are interned (setLockset) and never mutated in place:
	// snapshots share them.
	locksets [][]int
	// cur[t] is thread t's snapshot for its current sync epoch, nil until the
	// epoch's first checked access builds it. Every hook that writes vcs[t]
	// or locksets[t] sets cur[t] = nil.
	cur []*raceSnap
	// lockRel[l] is the vector clock of lock l's last release.
	lockRel [][]int64
	// shadow is the page table of the shadow memory: the cell of flat global
	// address a (Machine.baseOff + index) is shadow[a>>shadowShift][a&shadowMask],
	// and a page is nil until its first access — programs touch a fraction of
	// their globals (water-nsq 1 %), and an untouched cell remembers nothing.
	// nwords is the memory's size in cells: the last page is short.
	shadow [][]shadowCell
	nwords int64

	// Slabs behind the cells: read lists, snapshots, and the snapshots'
	// vector-clock words.
	reads slab[raceEpoch]
	snaps slab[raceSnap]
	words slab[int64]

	// oneLock[l] is the interned set {l}; nested[t] holds the larger sets
	// thread t has held. lsBuf is the scratch the hooks build candidates in.
	oneLock [][]int
	nested  [][][]int
	lsBuf   []int
	// jointBuf is the reused join buffer for BarrierReleased.
	jointBuf []int64
	// sites interns the reference interpreter's access sites.
	sites map[*ir.Instr]*raceSite

	races      []*diag.RaceError
	suppressed int
}

// newRaceDetector sizes the detector for a machine: a page table over the
// global words, one release clock per lock, one vector clock per initial
// thread (the Spawned hook adds the rest), and first slab chunks of a few
// entries per thread, so a small program pays for a small detector.
func newRaceDetector(cfg RaceConfig, mod *ir.Module, threads int) *RaceDetector {
	if cfg.MaxReports <= 0 {
		cfg.MaxReports = 100
	}
	var words int64
	for _, g := range mod.Globals {
		words += g.Size
	}
	d := &RaceDetector{
		cfg:     cfg,
		lockRel: make([][]int64, mod.NumLocks),
		oneLock: make([][]int, mod.NumLocks),
		shadow:  make([][]shadowCell, (words+shadowMask)>>shadowShift),
		nwords:  words,
		reads:   slab[raceEpoch]{next: 4 * threads},
		snaps:   slab[raceSnap]{next: 2 * threads},
		words:   slab[int64]{next: 2 * threads * threads},
	}
	for t := 0; t < threads; t++ {
		d.addThread(t)
	}
	return d
}

// addThread registers thread ids up to and including tid with fresh clocks.
func (d *RaceDetector) addThread(tid int) {
	for len(d.vcs) <= tid {
		t := len(d.vcs)
		vc := make([]int64, t+1)
		vc[t] = 1
		d.vcs = append(d.vcs, vc)
		d.locksets = append(d.locksets, nil)
		d.cur = append(d.cur, nil)
		d.nested = append(d.nested, nil)
	}
}

// vcJoin merges src into dst component-wise (dst := dst ⊔ src).
func vcJoin(dst []int64, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
	return dst
}

// locksetsIntersect reports whether two sorted lock-id slices share a lock.
func locksetsIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// grown returns s extended with zero values to hold index i.
func grown[T any](s []T, i int) []T {
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
	}
	return s
}

// lockClock returns lock's release clock (a lock id may exceed the module's
// declared count).
func (d *RaceDetector) lockClock(lock int) *[]int64 {
	d.lockRel = grown(d.lockRel, lock)
	return &d.lockRel[lock]
}

// setLockset starts a new sync epoch for thread holding set (sorted, built in
// d.lsBuf): its lockset becomes the interned slice equal to set — nil for the
// empty set, one shared slice per single lock, and per thread one slice per
// distinct nested set it has ever held. Lock nesting is shallow, so that list
// stays a handful long and a release back to a set held before allocates
// nothing.
func (d *RaceDetector) setLockset(thread int, set []int) {
	d.lsBuf, d.cur[thread] = set, nil
	switch len(set) {
	case 0:
		d.locksets[thread] = nil
	case 1:
		l := set[0]
		if d.oneLock = grown(d.oneLock, l); d.oneLock[l] == nil {
			d.oneLock[l] = []int{l}
		}
		d.locksets[thread] = d.oneLock[l]
	default:
		i := slices.IndexFunc(d.nested[thread], func(have []int) bool { return slices.Equal(have, set) })
		if i < 0 {
			i = len(d.nested[thread])
			d.nested[thread] = append(d.nested[thread], slices.Clone(set))
		}
		d.locksets[thread] = d.nested[thread][i]
	}
}

// --- sim.SyncObserver: clock updates at synchronization events -------------

// Acquired: the acquirer inherits everything that happened before the
// lock's last release (the release→acquire edge).
func (d *RaceDetector) Acquired(thread, lock int) {
	d.addThread(thread)
	d.vcs[thread] = vcJoin(d.vcs[thread], *d.lockClock(lock))
	set := append(d.lsBuf[:0], d.locksets[thread]...)
	if i, held := slices.BinarySearch(set, lock); !held {
		set = slices.Insert(set, i, lock)
	}
	d.setLockset(thread, set)
}

// Released: the lock remembers the releaser's clock, and the releaser
// starts a new epoch so later same-thread accesses are not confused with
// pre-release ones.
func (d *RaceDetector) Released(thread, lock int) {
	d.addThread(thread)
	rel := d.lockClock(lock)
	*rel = append((*rel)[:0], d.vcs[thread]...)
	d.vcs[thread][thread]++
	set := append(d.lsBuf[:0], d.locksets[thread]...)
	if i, held := slices.BinarySearch(set, lock); held {
		set = slices.Delete(set, i, i+1)
	}
	d.setLockset(thread, set)
}

// BarrierReleased: every participant happens-before every participant's
// post-barrier code — all clocks join, then each starts a new epoch.
func (d *RaceDetector) BarrierReleased(threads []int) {
	joint := d.jointBuf[:0]
	for _, t := range threads {
		d.addThread(t)
		joint = vcJoin(joint, d.vcs[t])
	}
	d.jointBuf = joint
	for _, t := range threads {
		d.vcs[t] = append(d.vcs[t][:0], joint...)
		d.vcs[t][t]++
		d.cur[t] = nil
	}
}

// Spawned: the child inherits the parent's history; the parent ticks so the
// spawn point separates its pre- and post-spawn epochs.
func (d *RaceDetector) Spawned(parent, child int) {
	d.addThread(parent)
	d.addThread(child)
	d.vcs[child] = vcJoin(d.vcs[child], d.vcs[parent])
	d.vcs[parent][parent]++
	d.cur[parent], d.cur[child] = nil, nil
}

// Joined: the waiter inherits everything the target did.
func (d *RaceDetector) Joined(waiter, target int) {
	d.addThread(waiter)
	d.addThread(target)
	d.vcs[waiter] = vcJoin(d.vcs[waiter], d.vcs[target])
	d.vcs[waiter][waiter]++
	d.cur[waiter] = nil
}

// --- access checking --------------------------------------------------------

// snapshot builds thread tid's snapshot for its current sync epoch.
func (d *RaceDetector) snapshot(tid int) *raceSnap {
	vc := d.vcs[tid]
	s := &d.snaps.carve(1)[0]
	*s = raceSnap{tid: tid, clock: vc[tid], vc: d.words.carve(len(vc)), lockset: d.locksets[tid]}
	copy(s.vc, vc)
	d.cur[tid] = s
	return s
}

// races reports whether the remembered access prev conflicts with an access
// in epoch now: no common lock (the cheap pre-filter — a shared lock
// serializes the critical sections and the release→acquire join orders
// them) and no happens-before edge (prev's epoch not covered by now's
// clock; clocks are variable-width, a missing component is 0). Same-thread
// accesses are always ordered (own components are monotone), so no special
// case is needed.
func (prev *raceSnap) races(now *raceSnap) bool {
	return (prev.tid >= len(now.vc) || prev.clock > now.vc[prev.tid]) &&
		!locksetsIntersect(prev.lockset, now.lockset)
}

// access checks one load (write=false) or store (write=true) of
// site.sym[idx] at flat address addr, executed by tid. It returns a non-nil
// *diag.RaceError only under RaceFailFast.
func (d *RaceDetector) access(tid int, site *raceSite, idx, addr int64, write bool) error {
	page := d.shadow[addr>>shadowShift]
	if page == nil {
		page = make([]shadowCell, min(1<<shadowShift, d.nwords-addr&^shadowMask))
		d.shadow[addr>>shadowShift] = page
	}
	cell := &page[addr&shadowMask]
	if tid >= len(d.vcs) {
		d.addThread(tid)
	}
	now := d.cur[tid]
	if now == nil {
		now = d.snapshot(tid)
	} else if !d.cfg.Reference {
		// Same-epoch fast paths (FastTrack's "same epoch" case adapted to
		// this detector): the cell already remembers an access made under
		// this very snapshot, so this one was in effect already evaluated
		// against the exact cell state — any race it could report would have
		// poisoned the cell then. Only the remembered site needs refreshing.
		if write {
			// Presence of any read entry, or a foreign write, falls through:
			// those paths can produce a report or must rewrite cell state.
			if cell.write.snap == now && len(cell.reads) == 0 {
				cell.write.site = site
				return nil
			}
		} else {
			// A surviving own read entry proves no write intervened (writes
			// clear the read list), so the write-vs-read check from the
			// entry's creation still stands.
			for i := range cell.reads {
				if cell.reads[i].snap == now {
					cell.reads[i].site = site
					return nil
				}
			}
		}
	}
	var failErr error
	if !cell.poisoned {
		prev, prevWrite := raceEpoch{}, true
		if w := cell.write.snap; w != nil && w.races(now) {
			prev = cell.write
		} else if write {
			// A write also conflicts with concurrent reads; scan in thread
			// order so the reported pair is canonical.
			prevWrite = false
			for _, r := range cell.reads {
				if (prev.snap == nil || r.snap.tid < prev.snap.tid) && r.snap.races(now) {
					prev = r
				}
			}
		}
		if prev.snap != nil {
			re := buildReport(idx, addr, prev, prevWrite, raceEpoch{now, site}, write)
			cell.poisoned = true
			if d.cfg.Policy == RaceFailFast {
				failErr = re
			} else if len(d.races) < d.cfg.MaxReports {
				d.races = append(d.races, re)
			} else {
				d.suppressed++
			}
		}
	}
	// Update the shadow word: two pointers per remembered access.
	if write {
		cell.write = raceEpoch{now, site}
		cell.reads = cell.reads[:0]
		return failErr
	}
	n := len(cell.reads)
	for i := 0; i < n; i++ {
		if cell.reads[i].snap.tid == tid {
			cell.reads[i] = raceEpoch{now, site}
			return failErr
		}
	}
	if n == cap(cell.reads) {
		// Most cells have one reader, the rest tend to be read by every
		// thread: one entry first, then room for four times as many.
		grown := d.reads.carve(max(1, 4*n))
		copy(grown, cell.reads)
		cell.reads = grown[:n]
	}
	cell.reads = append(cell.reads, raceEpoch{now, site})
	return failErr
}

// buildReport assembles the canonical RaceError: accesses ordered by thread
// id (racing accesses are never same-thread), data copied out of the shared
// snapshots.
func buildReport(idx, addr int64, prev raceEpoch, prevWrite bool, cur raceEpoch, curWrite bool) *diag.RaceError {
	side := func(e raceEpoch, write bool) diag.RaceAccess {
		return diag.RaceAccess{
			Thread:  e.snap.tid,
			Write:   write,
			Clock:   e.snap.clock,
			VC:      slices.Clone(e.snap.vc),
			Lockset: slices.Clone(e.snap.lockset),
			Site:    fmt.Sprintf("%s.%s+%d", e.site.fn.Name, e.site.block.Name, e.site.pc),
		}
	}
	re := &diag.RaceError{Sym: cur.site.sym, Index: idx, Addr: addr}
	re.First, re.Second = side(prev, prevWrite), side(cur, curWrite)
	if re.Second.Thread < re.First.Thread {
		re.First, re.Second = re.Second, re.First
	}
	return re
}

// raceCheck forwards one access by this thread to the machine's detector.
// The returned error is the fail-fast *diag.RaceError, surfaced unwrapped so
// errors.As sees it through the engine's thread-context wrapper.
func (t *Thread) raceCheck(site *raceSite, idx, addr int64, write bool) error {
	return t.mach.race.access(t.tid, site, idx, addr, write)
}

// raceAccess is raceCheck for the tree-walking interpreter, which interns its
// IR sites in the detector (fr.pc was already advanced past the instruction,
// hence the -1).
func (t *Thread) raceAccess(ins *ir.Instr, idx int64, write bool) error {
	d := t.mach.race
	site := d.sites[ins]
	if site == nil {
		fr := t.top()
		site = &raceSite{sym: ins.Sym, fn: fr.fn, block: fr.block, pc: int32(fr.pc - 1)}
		if d.sites == nil {
			d.sites = map[*ir.Instr]*raceSite{}
		}
		d.sites[ins] = site
	}
	return t.raceCheck(site, idx, t.mach.baseOff[ins.Sym]+idx, write)
}

// Observer exposes the machine's race detector as a sim.SyncObserver for
// engine wiring, or nil when detection is disabled.
func (m *Machine) Observer() sim.SyncObserver {
	if m.race == nil {
		return nil
	}
	return m.race
}

// Races returns the race reports collected by the machine's detector under
// RaceReport, in detection order — deterministic, since the engine's schedule
// is (nil when detection is off or no race was found).
func (m *Machine) Races() []*diag.RaceError {
	if m.race == nil {
		return nil
	}
	return m.race.races
}

// RacesSuppressed counts reports dropped by the deterministic cap.
func (m *Machine) RacesSuppressed() int {
	if m.race == nil {
		return 0
	}
	return m.race.suppressed
}
