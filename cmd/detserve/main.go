// Command detserve runs the deterministic-execution service as an HTTP
// server: a long-lived embedding of the ir→core→interp→sim pipeline behind a
// job-submission API with a worker pool and content-addressed caches.
//
// Usage:
//
//	detserve [-addr :8080] [-workers N] [-queue N] [-self-check RATE] \
//	         [-instr-cache N] [-result-cache N] [-pprof ADDR] \
//	         [-journal PATH] [-deadline DUR] [-max-retries N] \
//	         [-peers A,B,C] [-seed-peers A,B] [-self ADDR] [-shards N] \
//	         [-standby ADDR] [-ship-path PATH]
//	detserve -journal PATH -verify-journal
//	detserve -journal PATH -scrub
//
// Endpoints:
//
//	POST /v1/jobs        submit a job (body: service.Request JSON, at most
//	                     8 MB). ?wait=1 blocks until the job completes and
//	                     returns the result (or the structured failure)
//	                     directly; a client that disconnects cancels its job.
//	                     encoding/json defines both formats; plain requests
//	                     and results take a one-pass codec that writes the
//	                     same bytes (DESIGN.md §7, Front end).
//	GET  /v1/jobs/{id}   job status/result (service.JobView JSON).
//	GET  /v1/stats       service counters (service.StatsSnapshot JSON).
//	GET  /healthz        liveness + queue depth (200 while the process runs).
//	GET  /readyz         readiness (503 while joining, draining,
//	                     journal-degraded, or divergence circuit breaker
//	                     open).
//	POST /internal/v1/*  cluster peer protocol, one route table
//	                     (internal/cluster/routes.go): result, offer, steal,
//	                     complete, handoff, handoff-journal, ship, gossip,
//	                     join, digest, bucket. Every parameter travels in the
//	                     body, under its CRC32C in X-Detserve-Sum: refused
//	                     (422) without it, or (413) past 256 MB — see
//	                     DESIGN.md §11.
//	POST /v1/cluster/drain  start a graceful drain (202; handoff + leave
//	                        proceed in the background).
//	GET  /v1/cluster/stats  cluster counters, membership view, peer liveness.
//
// Clustering: -peers enables a consistent-hash shard group over the listed
// nodes (peer cache fill with hedged retry, work stealing, deterministic
// health probing); -standby ships the job journal to a node running with
// -ship-path for warm takeover. Every peer failure degrades to local
// recomputation — never a client-visible error. See README "Running a
// cluster" and DESIGN.md §10.
//
// Dynamic membership: -seed-peers A,B replaces the static list with a
// gossiped, versioned membership view. The node starts joining, bootstraps
// through a seed (verifying the seed's journal snapshot by re-execution)
// and is admitted to the hash ring only then; -seed-peers "" (empty value)
// bootstraps a new cluster of one that others join. SIGTERM triggers a
// graceful drain: the node stops admitting, hands queued jobs, displaced
// cache keys and journal segment ownership to the surviving owners, spreads
// its tombstone, and exits. See DESIGN.md §13.
//
// Status codes: 400 for configuration misuse and undecodable requests, 404 for
// unknown jobs, 413 (kind body_too_large) for a request body over 8 MB —
// refused unread when its Content-Length says so — 422 for
// jobs that failed with a structured report (deadlock, race, divergence),
// 429 with a Retry-After header when the bounded queue is full or load
// shedding is active, 500 when a job exhausted its transient-failure retry
// budget, 503 with Retry-After while the divergence circuit breaker is open
// or the server is shutting down, 504 for jobs canceled by their deadline.
//
// Durability: -journal PATH arms the append-only JSONL job journal. A job that
// is queued, or whose id is all the client gets, is fsynced before the reply
// and survives crashes (a ?wait=1 request answered from the result cache has
// its result at once and its records written with the next batch: after a
// crash its id may be unknown, and is never issued again): on restart, completed jobs are served from the journal (and re-verified by
// background re-execution), incomplete ones are re-executed — weak
// determinism guarantees the recovered results are identical. A journal that
// cannot be opened aborts startup; one that breaks mid-flight degrades the
// service (journaling and result cache off) but keeps it serving.
//
// -deadline bounds every job's execution time unless the request carries its
// own deadline_ms; -max-retries bounds per-job retries of transient faults
// (0 disables retries).
//
// -pprof ADDR serves net/http/pprof on a second, separate listener (e.g.
// -pprof localhost:6060), keeping the profiling surface off the job API's
// address. See README "Profiling".
//
// -verify-journal runs a read-only integrity scan of the -journal log (CRC
// frames — a line without one is damage — record structure, torn tail) and
// prints the JSON report; it exits nonzero when damage is found. -scrub
// additionally repairs the log offline: damaged lines move to a
// `<journal>.quarantine` sidecar and the log is rewritten without them — the
// same pass server startup runs automatically.
// See DESIGN.md §11.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// invocation is a validated command line: what to run and with which
// configuration.
type invocation struct {
	addr, pprofAddr string
	// scrub / verify select the offline journal modes instead of serving.
	scrub, verify bool
	cluster       cluster.Config
}

// parseArgs parses and validates the command line. Validation happens up
// front with typed, per-flag messages (the detbench pattern): a bad
// invocation gets one short precise complaint, never a mid-startup error
// with a stack of context. onError is the flag package's own syntax-error
// policy (main exits, tests continue).
func parseArgs(args []string, onError flag.ErrorHandling) (*invocation, error) {
	fs := flag.NewFlagSet("detserve", onError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 0, "job queue depth (0 = default 256)")
		instrCache  = fs.Int("instr-cache", 0, "instrumentation cache entries (0 = default)")
		resultCache = fs.Int("result-cache", 0, "result cache entries (0 = default)")
		selfCheck   = fs.Float64("self-check", 0, "fraction of cache hits and peer fills to re-execute and verify (0..1)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
		journal     = fs.String("journal", "", "durable job journal path (empty = no durability)")
		deadlineF   = fs.Duration("deadline", 0, "default per-job execution deadline (0 = unbounded)")
		maxRetries  = fs.Int("max-retries", 2, "transient-failure retries per job (0 disables)")
		scrubF      = fs.Bool("scrub", false, "repair the -journal log offline (quarantine damaged records, rewrite), print the JSON report, exit")
		verifyF     = fs.Bool("verify-journal", false, "read-only integrity scan of the -journal log, print the JSON report, exit (nonzero on damage)")

		self       = fs.String("self", "", "advertised cluster address (default: -addr)")
		peersF     = fs.String("peers", "", "comma-separated peer addresses (enables sharded peer cache fill and work stealing)")
		seedPeersF = fs.String("seed-peers", "", "comma-separated seed addresses for dynamic membership (join via gossip); empty value bootstraps a new cluster")
		standby    = fs.String("standby", "", "standby address to ship the job journal to")
		shards     = fs.Int("shards", 0, "virtual shards per node on the hash ring (0 = default 64)")
		shipPath   = fs.String("ship-path", "", "act as a standby: persist shipped journal records here")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected arguments %v (detserve takes flags only)", fs.Args())
	}
	for _, f := range []struct {
		name  string
		value int
	}{
		{"-workers", *workers}, {"-queue", *queue},
		{"-instr-cache", *instrCache}, {"-result-cache", *resultCache},
		{"-shards", *shards}, {"-max-retries", *maxRetries},
	} {
		if f.value < 0 {
			return nil, fmt.Errorf("%s must be >= 0 (got %d)", f.name, f.value)
		}
	}
	if *selfCheck < 0 || *selfCheck > 1 {
		return nil, fmt.Errorf("-self-check must be in [0,1] (got %g)", *selfCheck)
	}
	if *deadlineF < 0 {
		return nil, fmt.Errorf("-deadline must be >= 0 (got %v)", *deadlineF)
	}
	// Journal-family paths fail fast here, not after the listener is up: a
	// typo'd directory must never let the server run thinking it is durable.
	for _, f := range []struct{ name, path string }{
		{"-journal", *journal}, {"-ship-path", *shipPath},
	} {
		if f.path == "" {
			continue
		}
		dir := filepath.Dir(f.path)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("%s %q: parent directory %q does not exist", f.name, f.path, dir)
		}
		if st, err := os.Stat(f.path); err == nil && st.IsDir() {
			return nil, fmt.Errorf("%s %q is a directory, want a file path", f.name, f.path)
		}
	}
	if *journal != "" && *shipPath != "" && *journal == *shipPath {
		return nil, fmt.Errorf("-journal and -ship-path must be different files (both %q)", *journal)
	}
	if *standby != "" && *journal == "" {
		return nil, errors.New("-standby ships the job journal and requires -journal PATH")
	}
	if (*scrubF || *verifyF) && *journal == "" {
		return nil, errors.New("-scrub and -verify-journal require -journal PATH")
	}
	// -seed-peers "" is meaningful (bootstrap a new cluster), so presence is
	// detected, not inferred from the value.
	seedMode := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed-peers" {
			seedMode = true
		}
	})
	if seedMode && *peersF != "" {
		return nil, errors.New("-peers and -seed-peers are mutually exclusive (static list vs gossip-joined membership)")
	}

	inv := &invocation{addr: *addr, pprofAddr: *pprofAddr, scrub: *scrubF, verify: *verifyF, cluster: cluster.Config{
		Self:          *self,
		Standby:       *standby,
		VirtualShards: *shards,
		ShipPath:      *shipPath,
		Peers:         splitList(*peersF),
		Service: service.Config{
			Workers:         *workers,
			QueueDepth:      *queue,
			InstrCacheSize:  *instrCache,
			ResultCacheSize: *resultCache,
			SelfCheckRate:   *selfCheck,
			JournalPath:     *journal,
			DefaultDeadline: *deadlineF,
			MaxRetries:      *maxRetries,
		},
	}}
	if *maxRetries == 0 {
		inv.cluster.Service.MaxRetries = -1 // Config 0 means "default"; the flag's 0 means off
	}
	if inv.cluster.Self == "" {
		inv.cluster.Self = *addr
	}
	if seedMode {
		// Non-nil selects dynamic membership, even when empty.
		inv.cluster.SeedPeers = append([]string{}, splitList(*seedPeersF)...)
	}
	return inv, nil
}

// splitList splits a comma-separated flag value, dropping blanks.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	inv, err := parseArgs(os.Args[1:], flag.ExitOnError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "detserve: %v\n", err)
		os.Exit(2)
	}
	if inv.scrub || inv.verify {
		rep, err := service.ScrubJournal(nil, inv.cluster.Service.JournalPath, inv.scrub)
		if err != nil {
			fmt.Fprintln(os.Stderr, "detserve: scrub:", err)
			os.Exit(1)
		}
		out, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(out))
		if !inv.scrub && (rep.Quarantined > 0 || rep.TornBytes > 0) {
			os.Exit(1) // verify mode flags damage without repairing it
		}
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal during the drain kills as usual
	if err := serve(ctx, inv.addr, inv.pprofAddr, inv.cluster); err != nil {
		fmt.Fprintln(os.Stderr, "detserve:", err)
		os.Exit(1)
	}
}

// serve runs the HTTP server until ctx is done (SIGINT/SIGTERM in main), then
// drains and closes the listener. The service always runs inside a cluster
// node — with no peers and no standby that is provably the bare engine, and
// either way the node contributes /healthz, /readyz, /v1/cluster/* and the
// peer protocol to the same listener.
func serve(ctx context.Context, addr, pprofAddr string, ccfg cluster.Config) error {
	// Open, not New: a front end asked for durability must refuse to start
	// without it rather than silently running degraded.
	node, err := cluster.Open(ccfg)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	svc := node.Service()
	cfg := ccfg.Service
	srv := &http.Server{Addr: addr, Handler: mountNode(newHandler(svc), node)}

	errCh := make(chan error, 1)
	if pprofAddr != "" {
		// The job API uses its own mux, so the pprof handlers go on a second
		// listener rather than leaking onto the public address. A startup
		// failure here (port taken) should abort like one on the main port.
		psrv := &http.Server{Addr: pprofAddr, Handler: pprofHandler()}
		defer psrv.Close()
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errCh <- fmt.Errorf("pprof listener: %w", err)
			}
		}()
		fmt.Printf("detserve: pprof on http://%s/debug/pprof/\n", pprofAddr)
	}
	go func() {
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	snap := svc.Snapshot()
	fmt.Printf("detserve: listening on %s (workers=%d queue=%d)\n", addr, snap.Workers, snap.QueueCap)
	if snap.JournalEnabled {
		fmt.Printf("detserve: journal %s (%d jobs recovered)\n", cfg.JournalPath, snap.RecoveredJobs)
	}
	if peers := node.Peers(); len(peers) > 0 {
		fmt.Printf("detserve: cluster of %d peers as %s\n", len(peers), ccfg.Self)
	}
	if ccfg.SeedPeers != nil {
		if len(ccfg.SeedPeers) == 0 {
			fmt.Printf("detserve: bootstrapped dynamic cluster as %s (epoch %d)\n", ccfg.Self, node.Epoch())
		} else {
			// Join after the listener is up: handed-back completions and gossip
			// pushes need our HTTP surface reachable. Retry with backoff — the
			// seeds may still be starting.
			go func() {
				for attempt := 1; ; attempt++ {
					if err := node.Join(ctx); err == nil {
						fmt.Printf("detserve: joined cluster via %v as %s (epoch %d)\n", ccfg.SeedPeers, ccfg.Self, node.Epoch())
						return
					} else if ctx.Err() != nil || attempt >= 20 {
						fmt.Fprintf(os.Stderr, "detserve: join failed after %d attempts: %v (serving standalone until gossip reaches us)\n", attempt, err)
						return
					}
					time.Sleep(500 * time.Millisecond)
				}
			}()
		}
	}
	if ccfg.Standby != "" {
		fmt.Printf("detserve: shipping journal to %s\n", ccfg.Standby)
	}
	if ccfg.ShipPath != "" {
		fmt.Printf("detserve: standby store at %s\n", ccfg.ShipPath)
	}

	select {
	case err := <-errCh:
		node.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	fmt.Println("detserve: shutting down: graceful drain (handoff, rebalance, journal transfer), then exit")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Drain before the listener closes: handed-off jobs post their
	// completions back through our HTTP surface, and peers pull our view.
	// New submissions are already refused (typed ErrDraining → 503).
	if err := node.Drain(shutCtx); err != nil {
		node.Close(context.Background()) // best effort: a timed-out drain must still release the node
		srv.Shutdown(shutCtx)
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// mountNode serves the public job API's paths from api and every other path
// from the cluster node: /healthz, /readyz, /v1/cluster/* and the peer
// routes, which the node's own route table declares.
func mountNode(api http.Handler, node *cluster.Node) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", api)
	mux.Handle("/v1/jobs/", api)
	mux.Handle("/v1/stats", api)
	mux.Handle("/", node.Handler())
	return mux
}

// pprofHandler builds the standard pprof surface on an isolated mux (the
// net/http/pprof import also registers on DefaultServeMux, but nothing here
// serves that mux).
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maxJobBody bounds a POST /v1/jobs body. pooledBodyCap is the largest buffer
// bodyPool keeps: program texts are heavy-tailed, and a buffer grown for one
// 1 MB program must not stay pinned behind a stream of 1 kB ones.
const (
	maxJobBody    = 8 << 20
	pooledBodyCap = 64 << 10
)

// bodyPool holds the buffers POST /v1/jobs reads a request into and, once the
// request is decoded out of it, builds the reply in.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readJobBody reads the request's body into buf, grown once from the declared
// length. A body over maxJobBody is a *http.MaxBytesError: unread when its
// declared length already says so, otherwise abandoned one byte past the cap.
func readJobBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) error {
	if r.ContentLength > maxJobBody {
		return &http.MaxBytesError{Limit: maxJobBody}
	}
	// ReadFrom wants MinRead free bytes before every read, the one that
	// reports EOF included.
	buf.Reset()
	buf.Grow(int(r.ContentLength) + bytes.MinRead)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxJobBody))
	return err
}

// newHandler wires the service into a Go 1.22 pattern-routing mux. POST
// /v1/jobs reads, decodes and answers through one pooled buffer; encoding/json
// defines both formats, and whatever the one-pass codecs decline is
// json.Unmarshal's and writeJSON's to handle as before (DESIGN §7, Front end).
func newHandler(svc *service.Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		buf := bodyPool.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= pooledBodyCap {
				bodyPool.Put(buf)
			}
		}()
		if err := readJobBody(w, r, buf); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeErr(w, code, fmt.Errorf("read body: %w", err))
			return
		}
		var req service.Request
		if err := svc.DecodeRequestJSON(buf.Bytes(), &req); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
			return
		}
		// The common query without url.ParseQuery's map.
		if r.URL.RawQuery == "wait=1" || r.URL.Query().Get("wait") == "1" {
			res, err := svc.Do(r.Context(), req)
			if err != nil {
				writeErr(w, statusFor(err), err)
				return
			}
			// req holds copies of its strings: the buffer is free for the reply.
			buf.Reset()
			if out, ok := res.AppendJSONIndent(buf.AvailableBuffer()); ok {
				w.Header().Set("Content-Type", "application/json")
				w.Write(out)
				return
			}
			writeJSON(w, http.StatusOK, res)
			return
		}
		id, err := svc.Submit(req)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, err := svc.Lookup(r.PathValue("id"))
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, view)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Snapshot())
	})
	return mux
}

// statusFor maps the service's typed errors onto HTTP status codes.
func statusFor(err error) int {
	switch service.Classify(err) {
	case "queue_full", "overloaded":
		return http.StatusTooManyRequests
	case "closed", "circuit_open", "draining":
		return http.StatusServiceUnavailable
	case "unknown_job":
		return http.StatusNotFound
	case "misuse":
		return http.StatusBadRequest
	case "timeout":
		return http.StatusGatewayTimeout
	case "retries_exhausted":
		// A transient serving-environment fault persisted across every
		// attempt: the server's fault, not the request's.
		return http.StatusInternalServerError
	case "deadlock", "race", "divergence":
		// The request was well-formed; the program failed with a structured
		// report.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusUnprocessableEntity
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	// Backpressure rejections (429/503) carry the service's retry hint so
	// well-behaved clients back off instead of hammering a shedding server.
	if ra := service.RetryAfter(err); ra > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", ra))
	}
	kind := service.Classify(err)
	if code == http.StatusRequestEntityTooLarge {
		kind = "body_too_large" // the front end's refusal: the service never saw a request
	}
	writeJSON(w, code, map[string]string{"error": err.Error(), "kind": kind})
}
