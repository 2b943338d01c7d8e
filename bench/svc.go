package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// clients is the closed loop's width: detserve's callers POST ...?wait=1
// and block for the reply, so each client has one job in flight. Two, to
// match the two cores the benchmark is sized for; it is also every service's
// worker count. Over HTTP the server is a process of its own, so one client
// (httpClients) already keeps two processes busy.
const (
	clients     = 2
	httpClients = 1
)

// target is a system under test that takes the stream's jobs: a bare
// service, a journaled one, a cluster, or a child detserve.
type target interface {
	// do submits request idx (an index into the stream's Reqs) as the
	// seq-th job of a round, from the given client, and waits for its result.
	do(client, seq, idx int) (*service.Result, error)
	// totalAlloc is the bytes allocated so far by the process serving jobs.
	totalAlloc() (uint64, error)
	// verify reports whether the system itself counted a failure.
	verify() error
	close() error
}

// session is one set-up of a workload, ready for timed rounds.
type session interface {
	round(rec *recorder) (roundStats, error)
	verify() error
	close() error
}

type roundStats struct {
	dur        time.Duration
	lat        []float64 // submit→result, ms, one per job
	jobs       int
	failed     int   // errors, refusals, and cores that differ from the oracle
	instrs     int64 // simulated instructions behind the correct results, run or cached
	allocBytes uint64
}

// svcSession drives a target with the stream's Order, from width clients.
type svcSession struct {
	s     *stream
	t     target
	width int
	// each, when set, sees every result (the traced pass counts fills).
	each func(seq int, res *service.Result)
}

// openSession is the service workloads' set-up: start the system, then
// submit the warm-up once so that caches are full and lazy initialisation
// is done before the first timed job.
func openSession(s *stream, width int, open func() (target, error)) (session, error) {
	t, err := open()
	if err != nil {
		return nil, err
	}
	ss := &svcSession{s: s, t: t, width: width}
	if st := ss.submit(s.Warm, nil); st.failed > 0 {
		t.close()
		return nil, fmt.Errorf("warm-up: %d of %d jobs failed", st.failed, st.jobs)
	}
	return ss, nil
}

func (ss *svcSession) round(rec *recorder) (roundStats, error) {
	a0, err := ss.t.totalAlloc()
	if err != nil {
		return roundStats{}, err
	}
	st := ss.submit(ss.s.Order, rec)
	a1, err := ss.t.totalAlloc()
	if err != nil {
		return roundStats{}, err
	}
	st.allocBytes = a1 - a0
	return st, nil
}

// submit pushes order through the target from width goroutines, each taking
// the next unsent job as soon as its previous one completes.
func (ss *svcSession) submit(order []int, rec *recorder) roundStats {
	st := roundStats{jobs: len(order), lat: make([]float64, len(order))}
	var next, failed, instrs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < ss.width; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				seq := int(next.Add(1)) - 1
				if seq >= len(order) {
					return
				}
				idx := order[seq]
				t0 := time.Now()
				res, err := ss.t.do(c, seq, idx)
				t1 := time.Now()
				st.lat[seq] = t1.Sub(t0).Seconds() * 1e3
				if rec != nil {
					rec.add(seq, "client.do", -1, t0, t1)
				}
				if err != nil || coreOf(res) != ss.s.Want[idx] {
					failed.Add(1)
					continue
				}
				instrs.Add(ss.s.Instrs[idx])
				if ss.each != nil {
					ss.each(seq, res)
				}
			}
		}(c)
	}
	wg.Wait()
	st.dur = time.Since(start)
	st.failed, st.instrs = int(failed.Load()), instrs.Load()
	return st
}

func (ss *svcSession) verify() error { return ss.t.verify() }
func (ss *svcSession) close() error  { return ss.t.close() }

func ownAlloc() (uint64, error) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, nil
}

func closeCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 30*time.Second)
}

func checkSnapshot(snap service.StatsSnapshot) error {
	if snap.JobsFailed != 0 || snap.JobsRejected != 0 || snap.Divergences != 0 || snap.JournalDegraded {
		return fmt.Errorf("service counted failed=%d rejected=%d divergences=%d journal_degraded=%v",
			snap.JobsFailed, snap.JobsRejected, snap.Divergences, snap.JournalDegraded)
	}
	return nil
}

// inproc is a service in the benchmark's own process, with or without a
// journal.
type inproc struct {
	reqs []service.Request
	svc  *service.Service
	dir  string     // journal directory, removed on close
	disk *modelDisk // what the journal writes through
}

// openInproc opens a service with two workers. With journal set, the journal
// lives in a fresh directory under the benchmark's scratch directory, inside
// the checkout, and is written through a modelDisk (disk.go).
func openInproc(e *env, reqs []service.Request, journal bool) (*inproc, error) {
	t := &inproc{reqs: reqs}
	cfg := service.Config{Workers: clients}
	if journal {
		dir, err := os.MkdirTemp(e.tmp, "journal-")
		if err != nil {
			return nil, err
		}
		t.dir, t.disk = dir, &modelDisk{}
		cfg.JournalPath, cfg.FS = filepath.Join(dir, "jobs.journal"), t.disk
	}
	svc, err := service.Open(cfg)
	if err != nil {
		os.RemoveAll(t.dir)
		return nil, err
	}
	t.svc = svc
	return t, nil
}

func (t *inproc) journalPath() string { return filepath.Join(t.dir, "jobs.journal") }

func (t *inproc) do(_, _, idx int) (*service.Result, error) {
	return t.svc.Do(context.Background(), t.reqs[idx])
}

func (t *inproc) totalAlloc() (uint64, error) { return ownAlloc() }
func (t *inproc) verify() error               { return checkSnapshot(t.svc.Snapshot()) }

// closeService drains the service and leaves the journal on disk.
func (t *inproc) closeService() error {
	ctx, cancel := closeCtx()
	defer cancel()
	return t.svc.Close(ctx)
}

func (t *inproc) close() error {
	err := t.closeService()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return err
}

// n3 is three cluster nodes over the in-memory LoopNet, background loops
// off, as workload.openNode sets them up: the submissions are the only
// traffic.
type n3 struct {
	reqs  []service.Request
	nodes []*cluster.Node
	owner []int // owner[idx] is the node owning request idx's result key
}

func openN3(reqs []service.Request) (*n3, error) {
	net := cluster.NewLoopNet()
	addrs := []string{"node-0", "node-1", "node-2"}
	t := &n3{reqs: reqs}
	for _, self := range addrs {
		n, err := cluster.Open(cluster.Config{
			Self: self, Peers: addrs, Client: net.Client(self),
			ProbeInterval: -1, StealInterval: -1, ShipInterval: -1, GossipInterval: -1, RepairInterval: -1,
			ProbeTimeout: time.Second, FillTimeout: 2 * time.Second, FailThreshold: 2,
			Service: service.Config{Workers: clients},
		})
		if err != nil {
			t.close()
			return nil, err
		}
		net.Register(self, n.Handler())
		t.nodes = append(t.nodes, n)
	}
	// Route by the key's owner, as a client library that knows the ring
	// would. Keys are computed once here, not per job.
	t.owner = make([]int, len(reqs))
	for i := range reqs {
		key, err := t.nodes[0].Service().KeyFor(reqs[i])
		if err != nil {
			t.close()
			return nil, err
		}
		name := t.nodes[0].Owner(key)
		for j, a := range addrs {
			if a == name {
				t.owner[i] = j
			}
		}
	}
	return t, nil
}

// route sends every n3Detour-th job to the node after the owner, which
// must then fill from the owner.
func (t *n3) route(seq, idx int) int {
	if seq%n3Detour == 0 {
		return (t.owner[idx] + 1) % len(t.nodes)
	}
	return t.owner[idx]
}

func (t *n3) do(_, seq, idx int) (*service.Result, error) {
	return t.nodes[t.route(seq, idx)].Service().Do(context.Background(), t.reqs[idx])
}

func (t *n3) totalAlloc() (uint64, error) { return ownAlloc() }

func (t *n3) verify() error {
	for _, n := range t.nodes {
		if err := checkSnapshot(n.Service().Snapshot()); err != nil {
			return fmt.Errorf("%s: %w", n.Name(), err)
		}
		if st := n.Stats(); st.OfferDivergences != 0 || st.CorruptPayloads != 0 {
			return fmt.Errorf("%s: offer divergences %d, corrupt payloads %d", n.Name(), st.OfferDivergences, st.CorruptPayloads)
		}
	}
	return nil
}

func (t *n3) close() error {
	ctx, cancel := closeCtx()
	defer cancel()
	var first error
	for _, n := range t.nodes {
		if err := n.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
