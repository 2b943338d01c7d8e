package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/diag"
	"repro/internal/service"
	"repro/internal/splash"
)

// What TestServeHitAllocs measured when written (2,416 bytes in 20 objects,
// the test's own recorder and request bookkeeping included; 3,304 in 21
// before the source memo, 9,176 in 51 before the one-pass front end), plus
// 10 %.
const (
	hitBytesBudget   = 2658
	hitObjectsBudget = 22
)

// quickstart is the README quickstart program: four threads contending on
// one lock.
const quickstart = `
module quickstart
locks 1
global counter 1

func main() regs 6 {
entry:
  r0 = tid
  r1 = const 0
  jmp loop
loop:
  r2 = lt r1, 4
  br r2, body, done
body:
  lock 0
  r3 = load counter[0]
  r3 = add r3, 1
  store counter[0], r3
  unlock 0
  r1 = add r1, 1
  jmp loop
done:
  ret r1
}
`

func TestParseArgs(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.journal")
	bad := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"positional", []string{"serve"}, "takes flags only"},
		{"unknown flag", []string{"-smoke"}, "not defined"},
		{"removed cluster smoke", []string{"-cluster-smoke"}, "not defined"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be >= 0"},
		{"negative queue", []string{"-queue", "-3"}, "-queue must be >= 0"},
		{"negative retries", []string{"-max-retries", "-1"}, "-max-retries must be >= 0"},
		{"negative shards", []string{"-shards", "-1"}, "-shards must be >= 0"},
		{"self-check range", []string{"-self-check", "1.5"}, "-self-check must be in [0,1]"},
		{"negative deadline", []string{"-deadline", "-1s"}, "-deadline must be >= 0"},
		{"journal parent missing", []string{"-journal", filepath.Join(dir, "absent", "j")}, "parent directory"},
		{"journal is a directory", []string{"-journal", dir}, "is a directory"},
		{"ship-path parent missing", []string{"-ship-path", filepath.Join(dir, "absent", "s")}, "parent directory"},
		{"journal equals ship-path", []string{"-journal", journal, "-ship-path", journal}, "must be different files"},
		{"standby without journal", []string{"-standby", "b:1"}, "requires -journal"},
		{"scrub without journal", []string{"-scrub"}, "require -journal"},
		{"verify without journal", []string{"-verify-journal"}, "require -journal"},
		{"peers and seed-peers", []string{"-peers", "a:1", "-seed-peers", "b:1"}, "mutually exclusive"},
		{"peers and empty seed-peers", []string{"-peers", "a:1", "-seed-peers", ""}, "mutually exclusive"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			inv, err := parseArgs(tc.args, flag.ContinueOnError)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseArgs(%v) = %+v, %v; want an error containing %q", tc.args, inv, err, tc.want)
			}
		})
	}

	inv, err := parseArgs([]string{"-addr", "127.0.0.1:9", "-journal", journal, "-standby", "b:1", "-max-retries", "0",
		"-peers", " a:1, ,b:1 ", "-workers", "3", "-self-check", "0.5", "-deadline", "2s"}, flag.ContinueOnError)
	if err != nil {
		t.Fatalf("valid static invocation: %v", err)
	}
	c := inv.cluster
	if c.Self != "127.0.0.1:9" || fmt.Sprint(c.Peers) != "[a:1 b:1]" || c.SeedPeers != nil || c.Standby != "b:1" {
		t.Fatalf("cluster config %+v", c)
	}
	if s := c.Service; s.MaxRetries != -1 || s.Workers != 3 || s.JournalPath != journal || s.SelfCheckRate != 0.5 || s.DefaultDeadline != 2*time.Second {
		t.Fatalf("service config %+v", s)
	}
	if inv.scrub || inv.verify {
		t.Fatalf("offline mode selected: %+v", inv)
	}

	inv, err = parseArgs([]string{"-seed-peers", "", "-self", "me:1"}, flag.ContinueOnError)
	if err != nil || inv.cluster.SeedPeers == nil || len(inv.cluster.SeedPeers) != 0 || inv.cluster.Self != "me:1" {
		t.Fatalf("bootstrap invocation: %+v, %v (want non-nil empty SeedPeers)", inv, err)
	}
	inv, err = parseArgs([]string{"-journal", journal, "-verify-journal"}, flag.ContinueOnError)
	if err != nil || !inv.verify || inv.scrub {
		t.Fatalf("verify invocation: %+v, %v", inv, err)
	}
}

func TestStatusFor(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("submit: %w", err) }
	cases := []struct {
		err        error
		want       int
		retryAfter bool
	}{
		{wrap(service.ErrQueueFull), http.StatusTooManyRequests, true},
		{wrap(service.ErrOverloaded), http.StatusTooManyRequests, true},
		{wrap(service.ErrCircuitOpen), http.StatusServiceUnavailable, true},
		{wrap(service.ErrDraining), http.StatusServiceUnavailable, false},
		{wrap(service.ErrClosed), http.StatusServiceUnavailable, false},
		{wrap(diag.ErrDeadline), http.StatusGatewayTimeout, false},
		{wrap(diag.ErrDeadlock), http.StatusUnprocessableEntity, false},
		{wrap(diag.ErrRace), http.StatusUnprocessableEntity, false},
		{wrap(diag.ErrDivergence), http.StatusUnprocessableEntity, false},
		{wrap(diag.ErrCorruption), http.StatusUnprocessableEntity, false},
		{wrap(diag.ErrRetriesExhausted), http.StatusInternalServerError, false},
		{wrap(service.ErrUnknownJob), http.StatusNotFound, false},
		{wrap(diag.ErrBadConfig), http.StatusBadRequest, false},
		{fmt.Errorf("anything else"), http.StatusUnprocessableEntity, false},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
		rec := httptest.NewRecorder()
		writeErr(rec, statusFor(tc.err), tc.err)
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("writeErr(%v): Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
		var body struct{ Error, Kind string }
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" || body.Kind != service.Classify(tc.err) {
			t.Errorf("writeErr(%v) body %q (decode err %v)", tc.err, rec.Body, err)
		}
	}
}

// freeAddr reserves a loopback port and releases it for the server under test.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// waitReady polls /readyz until 200.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never became ready: %v", addr, err)
		}
	}
}

// postRaw submits body to addr+path and returns the status and the reply's bytes.
func postRaw(t *testing.T, addr, path string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// post is postRaw with a 2xx reply decoded into out.
func post(t *testing.T, addr, path string, body []byte, out any) int {
	t.Helper()
	code, raw := postRaw(t, addr, path, body)
	if out != nil && code/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, raw, err)
		}
	}
	return code
}

func getJSON(t *testing.T, addr, path string, out any) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

// TestServeSmoke drives the real server (serve: listener, job API, node
// endpoints, graceful drain) over loopback: the same program submitted twice
// must come back the second time as a result-cache hit, re-executed by the
// self-check, with an identical schedule hash — the end-to-end proof that
// the content-addressed cache respects weak determinism.
func TestServeSmoke(t *testing.T) {
	addr := freeAddr(t)
	inv, err := parseArgs([]string{"-addr", addr, "-self-check", "1", "-workers", "2"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	ctx, shutdown := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, inv.addr, inv.pprofAddr, inv.cluster) }()
	defer func() {
		shutdown()
		if err := <-served; err != nil {
			t.Errorf("serve returned %v after a clean shutdown", err)
		}
	}()
	waitReady(t, addr)

	body, _ := json.Marshal(service.Request{Source: quickstart})
	var first, second service.Result
	if code := post(t, addr, "/v1/jobs?wait=1", body, &first); code != http.StatusOK || first.Cached {
		t.Fatalf("first submission: status %d, cached %v", code, first.Cached)
	}
	if code := post(t, addr, "/v1/jobs?wait=1", body, &second); code != http.StatusOK {
		t.Fatalf("second submission: status %d", code)
	}
	if !second.Cached || !second.SelfChecked || second.ScheduleHash != first.ScheduleHash {
		t.Fatalf("second submission: cached %v, self-checked %v, hash %s vs %s",
			second.Cached, second.SelfChecked, second.ScheduleHash, first.ScheduleHash)
	}

	// The reply's bytes are frozen: a hit, built by the append encoder, is
	// what encoding/json writes for the value it decodes to.
	code, raw := postRaw(t, addr, "/v1/jobs?wait=1", body)
	var hit service.Result
	if err := json.Unmarshal(raw, &hit); err != nil || code != http.StatusOK || !hit.Cached {
		t.Fatalf("hit: status %d, decode %v, body %s", code, err, raw)
	}
	if want, _ := json.MarshalIndent(hit, "", "  "); string(raw) != string(want)+"\n" {
		t.Fatalf("hit body:\n%s\nwant encoding/json's:\n%s", raw, want)
	}

	// The same program spelled as only encoding/json reads it — \u escapes,
	// an upper-case key, an unknown field — is the same job.
	src, _ := json.Marshal(quickstart)
	odd := `{"SOURCE":` + strings.ReplaceAll(string(src), `\n`, `\u000a`) + `,"comment":[1,{"x":null}]}`
	var viaJSON service.Result
	if code := post(t, addr, "/v1/jobs?wait=1", []byte(odd), &viaJSON); code != http.StatusOK || viaJSON.ScheduleHash != first.ScheduleHash {
		t.Fatalf("odd-but-legal request: status %d, hash %s, want %s", code, viaJSON.ScheduleHash, first.ScheduleHash)
	}
	// wait=1 is found however the query spells it.
	if code := post(t, addr, "/v1/jobs?x=1&wait=1", body, &viaJSON); code != http.StatusOK || viaJSON.ScheduleHash != first.ScheduleHash {
		t.Fatalf("?x=1&wait=1: status %d, hash %s", code, viaJSON.ScheduleHash)
	}

	// Malformed JSON is diagnosed by encoding/json, in its words.
	for _, bad := range []string{`{"source":"a",}`, `{"threads":"four"}`, `{"source":"a"} x`, ``} {
		wantErr := json.Unmarshal([]byte(bad), new(service.Request))
		var reply struct{ Error, Kind string }
		code, raw := postRaw(t, addr, "/v1/jobs?wait=1", []byte(bad))
		if err := json.Unmarshal(raw, &reply); err != nil || code != http.StatusBadRequest || reply.Error != "decode request: "+wantErr.Error() {
			t.Fatalf("malformed %q: status %d, body %s; want 400 and %q", bad, code, raw, "decode request: "+wantErr.Error())
		}
	}

	// Status mapping over the wire: malformed request 400, unknown job 404,
	// and a peer message without its checksum 422.
	if code := post(t, addr, "/v1/jobs?wait=1", []byte(`{"source":"","threads":-1}`), nil); code != http.StatusBadRequest {
		t.Fatalf("invalid request returned %d, want 400", code)
	}
	var view service.JobView
	if code := getJSON(t, addr, "/v1/jobs/no-such-job", &view); code != http.StatusNotFound {
		t.Fatalf("unknown job returned %d, want 404", code)
	}
	if code := post(t, addr, "/internal/v1/complete", []byte(`{"id":"x"}`), nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("peer message without a checksum returned %d, want 422", code)
	}

	var snap service.StatsSnapshot
	getJSON(t, addr, "/v1/stats", &snap)
	if snap.ResultCacheHits < 4 || snap.SelfChecks < 1 || snap.Divergences != 0 || snap.CorruptionEvents != 1 {
		t.Fatalf("counters: hits=%d self-checks=%d divergences=%d corruption_events=%d",
			snap.ResultCacheHits, snap.SelfChecks, snap.Divergences, snap.CorruptionEvents)
	}
}

// TestClusterSmoke proves the shard group end to end over real loopback
// HTTP: boot a 3-node cluster (each node with its own journal), sweep jobs
// across it, kill one node mid-sweep, restart it on its journal, and require
// zero lost jobs — every accepted id reaches done with the same schedule
// hash everywhere — and zero determinism divergences on any node.
func TestClusterSmoke(t *testing.T) {
	dir := t.TempDir()
	const nNodes, sweep, victim = 3, 12, 1

	// Listeners first: the peer list must be known before any node starts.
	lns := make([]net.Listener, nNodes)
	addrs := make([]string, nNodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	type member struct {
		node *cluster.Node
		srv  *http.Server
	}
	boot := func(i int, ln net.Listener) *member {
		node, err := cluster.Open(cluster.Config{
			Self:          addrs[i],
			Peers:         addrs,
			ProbeInterval: 50 * time.Millisecond,
			StealInterval: 50 * time.Millisecond,
			FailThreshold: 2,
			Service: service.Config{
				Workers:      2,
				JournalPath:  filepath.Join(dir, fmt.Sprintf("node-%d.journal", i)),
				StealReclaim: 250 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		srv := &http.Server{Handler: mountNode(newHandler(node.Service()), node)}
		go srv.Serve(ln)
		return &member{node: node, srv: srv}
	}
	members := make([]*member, nNodes)
	for i, ln := range lns {
		members[i] = boot(i, ln)
	}
	defer func() {
		for _, m := range members {
			if m != nil {
				m.srv.Close()
				m.node.Close(context.Background())
			}
		}
	}()
	for _, addr := range addrs {
		waitReady(t, addr)
	}

	// The sweep: jobs round-robin across the cluster, the victim killed
	// midway and restarted on its own journal a few submissions later.
	type accepted struct {
		node int
		id   string
		seed int64
	}
	var jobs []accepted
	for k := 0; k < sweep; k++ {
		if k == sweep/2 {
			members[victim].srv.Close()
			members[victim].node.Kill()
			members[victim] = nil
		}
		if k == sweep/2+3 {
			ln, err := net.Listen("tcp", addrs[victim])
			if err != nil {
				t.Fatalf("rebind %s: %v", addrs[victim], err)
			}
			members[victim] = boot(victim, ln)
			waitReady(t, addrs[victim])
		}
		target := k % nNodes
		if members[target] == nil {
			target = (target + 1) % nNodes // the victim is down: reroute
		}
		body, _ := json.Marshal(service.Request{Source: quickstart, PerturbSeed: int64(k % 4)})
		var out struct{ ID string }
		if code := post(t, addrs[target], "/v1/jobs", body, &out); code != http.StatusAccepted || out.ID == "" {
			t.Fatalf("node %d: submit status %d, id %q", target, code, out.ID)
		}
		jobs = append(jobs, accepted{node: target, id: out.ID, seed: int64(k % 4)})
	}

	// Zero lost jobs: every accepted id completes on its node, and identical
	// perturbations yield identical schedule hashes cluster-wide.
	hashes := map[int64]string{}
	for _, j := range jobs {
		var view service.JobView
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			code := getJSON(t, addrs[j.node], "/v1/jobs/"+j.id, &view)
			if code == http.StatusOK && view.Status == service.StatusDone {
				break
			}
			if view.Status == service.StatusFailed {
				t.Fatalf("node %d job %s failed: %s (%s)", j.node, j.id, view.Error, view.ErrorKind)
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d job %s not done (status %d, %s)", j.node, j.id, code, view.Status)
			}
		}
		if view.Result == nil {
			t.Fatalf("node %d job %s: done without result", j.node, j.id)
		}
		if prev, ok := hashes[j.seed]; ok && prev != view.Result.ScheduleHash {
			t.Fatalf("divergent schedule hash for seed %d: %s vs %s", j.seed, prev, view.Result.ScheduleHash)
		}
		hashes[j.seed] = view.Result.ScheduleHash
	}

	// A peer fill over real sockets: the binary frame travels through
	// net/http, not only LoopNet. A perturbation the sweep never used is
	// computed on its ring owner, then asked of another node, which must
	// answer from the owner's cache. (A fresh one each try: right after the
	// restart a prober may still hold the victim down and skip the fill.)
	filled := false
	for seed, deadline := int64(100), time.Now().Add(15*time.Second); !filled && time.Now().Before(deadline); seed++ {
		req := service.Request{Source: quickstart, PerturbSeed: seed}
		key, err := members[0].node.Service().KeyFor(req)
		if err != nil {
			t.Fatal(err)
		}
		owner := slices.Index(addrs, members[0].node.Owner(key))
		body, _ := json.Marshal(req)
		var computed, fetched service.Result
		if code := post(t, addrs[owner], "/v1/jobs?wait=1", body, &computed); code != http.StatusOK {
			t.Fatalf("owner %d: status %d", owner, code)
		}
		if code := post(t, addrs[(owner+1)%nNodes], "/v1/jobs?wait=1", body, &fetched); code != http.StatusOK {
			t.Fatalf("non-owner: status %d", code)
		}
		if fetched.ScheduleHash != computed.ScheduleHash {
			t.Fatalf("seed %d: schedule hash %s on the owner, %s on its peer", seed, computed.ScheduleHash, fetched.ScheduleHash)
		}
		filled = fetched.PeerFilled
	}
	if !filled {
		t.Fatal("no result arrived peer_filled over loopback HTTP")
	}

	for i, addr := range addrs {
		var snap service.StatsSnapshot
		getJSON(t, addr, "/v1/stats", &snap)
		if snap.Divergences != 0 || snap.CorruptionEvents != 0 {
			t.Fatalf("node %d observed %d divergences, %d corruption events", i, snap.Divergences, snap.CorruptionEvents)
		}
	}
}

// countingBody is a request body of endless filler that counts what is read
// of it.
type countingBody struct{ read int64 }

func (c *countingBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	c.read += int64(len(p))
	return len(p), nil
}

// TestJobBodyCap: a body over the cap is 413 with a kind of its own — unread
// when its Content-Length says so, abandoned one byte past the cap when it is
// chunked — and a body at the cap is read whole.
func TestJobBodyCap(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Kill()
	h := newHandler(svc)
	for _, tc := range []struct {
		name               string
		declared           int64
		wantCode           int
		wantKind           string
		wantRead, wantMore int64 // read at least wantRead, at most wantMore
	}{
		{"declared over the cap", maxJobBody + 1, http.StatusRequestEntityTooLarge, "body_too_large", 0, 0},
		{"chunked", -1, http.StatusRequestEntityTooLarge, "body_too_large", maxJobBody + 1, maxJobBody + 1},
		{"declared at the cap", maxJobBody, http.StatusBadRequest, "error", maxJobBody, maxJobBody + 1},
	} {
		body := &countingBody{}
		var rd io.Reader = body
		if tc.declared >= 0 {
			rd = io.LimitReader(body, tc.declared)
		}
		r := httptest.NewRequest("POST", "/v1/jobs?wait=1", rd)
		r.ContentLength = tc.declared
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var reply struct{ Error, Kind string }
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || rec.Code != tc.wantCode || reply.Kind != tc.wantKind {
			t.Errorf("%s: status %d, body %s; want %d and kind %q", tc.name, rec.Code, rec.Body, tc.wantCode, tc.wantKind)
		}
		if body.read < tc.wantRead || body.read > tc.wantMore {
			t.Errorf("%s: %d bytes read, want %d..%d", tc.name, body.read, tc.wantRead, tc.wantMore)
		}
	}
}

// TestLargeBodyLeavesThePool: a buffer grown for one large program is dropped,
// not handed to the next 1 kB request.
func TestLargeBodyLeavesThePool(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Kill()
	h := newHandler(svc)
	large := []byte(`{"source":"` + strings.Repeat("x", 1<<20) + `"}`)
	for i := 0; i < 8; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(large)))
		buf := bodyPool.Get().(*bytes.Buffer)
		if buf.Cap() > pooledBodyCap {
			t.Fatalf("the pool handed out a %d-byte buffer after a %d-byte request; it keeps at most %d", buf.Cap(), len(large), pooledBodyCap)
		}
		bodyPool.Put(buf)
	}
}

// TestConcurrentDecodeSharesMemo: eight handlers at once decode four texts
// through one node's program table, and each reply is its own text's: the
// hash Service.Do gives that text, which the four do not share.
func TestConcurrentDecodeSharesMemo(t *testing.T) {
	node, err := cluster.Open(cluster.Config{Self: "127.0.0.1:0", Service: service.Config{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close(context.Background())
	h := mountNode(newHandler(node.Service()), node)
	var bodies [4][]byte
	want := map[string]int{}
	for i := range bodies {
		src := strings.Replace(quickstart, "lt r1, 4", fmt.Sprintf("lt r1, %d", 4+i), 1)
		bodies[i], _ = json.Marshal(service.Request{Source: src})
		res, err := node.Service().Do(context.Background(), service.Request{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		want[res.ScheduleHash] = i
	}
	if len(want) != len(bodies) {
		t.Fatalf("the four texts share a schedule hash: %v", want)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 40; k++ {
				i := (g + k) % len(bodies)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs?wait=1", bytes.NewReader(bodies[i])))
				var res service.Result
				if err := json.Unmarshal(rec.Body.Bytes(), &res); rec.Code != http.StatusOK || err != nil {
					errs <- fmt.Errorf("text %d: status %d: %s", i, rec.Code, rec.Body)
					return
				}
				if got, ok := want[res.ScheduleHash]; !ok || got != i {
					errs <- fmt.Errorf("text %d answered with hash %s (text %d's: %v)", i, res.ScheduleHash, got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// hitBodies are the two request sizes a hit is measured on, as
// internal/service's hitPrograms are: the histogram example (the size of a
// generated pool program) and the radiosity text the paper's sweep submits.
func hitBodies(t testing.TB) map[string][]byte {
	t.Helper()
	small, err := os.ReadFile("../../examples/programs/histogram.dir")
	if err != nil {
		t.Fatal(err)
	}
	radiosity, err := splash.New("radiosity", 4)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, src := range map[string]string{"1kB": string(small), "36kB": radiosity.Module.String()} {
		out[name], _ = json.Marshal(service.Request{Source: src})
	}
	return out
}

// warmHandler is the mounted handler of a bare node with body's job already
// in the result cache, and one request through it.
func warmHandler(t testing.TB, body []byte) (serveHit func(), done func()) {
	t.Helper()
	node, err := cluster.Open(cluster.Config{Self: "127.0.0.1:0", Service: service.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := mountNode(newHandler(node.Service()), node)
	rd := bytes.NewReader(nil)
	r := httptest.NewRequest("POST", "/v1/jobs?wait=1", rd)
	r.ContentLength = int64(len(body))
	serveHit = func() {
		rd.Reset(body)
		r.Body = io.NopCloser(rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"schedule_hash": "`)) {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	serveHit() // the miss
	return serveHit, func() { node.Close(context.Background()) }
}

// BenchmarkServeHit is a result-cache hit through the mounted handler: what
// the HTTP front end adds around Service.Do, per request and per body byte.
// distinct/ sends the 1 kB program under a new comment every time: a text's
// first request, which the decoder unescapes and copies (its instrumentation
// misses, its result is the same module's and hits).
func BenchmarkServeHit(b *testing.B) {
	for _, name := range []string{"1kB", "36kB"} {
		body := hitBodies(b)[name]
		b.Run(name, func(b *testing.B) {
			serveHit, done := warmHandler(b, body)
			defer done()
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveHit()
			}
		})
	}
	b.Run("distinct", func(b *testing.B) {
		src, _ := os.ReadFile("../../examples/programs/histogram.dir")
		body, _ := json.Marshal(service.Request{Source: string(src) + "\n; 00000000"})
		digits := body[bytes.LastIndex(body, []byte("00000000")):][:8]
		serveHit, done := warmHandler(b, body)
		defer done()
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 1; i <= b.N; i++ {
			fmt.Appendf(digits[:0], "%08d", i) // in place: serveHit reads body
			serveHit()
		}
	})
}

// TestServeHitAllocs pins what one 1 kB hit allocates through the handler,
// recorder and request bookkeeping included, at what it measured when written
// plus 10 %. Bytes as well as objects: the objects alone would not have seen
// io.ReadAll's 20 kB.
func TestServeHitAllocs(t *testing.T) {
	serveHit, done := warmHandler(t, hitBodies(t)["1kB"])
	defer done()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, serveHit)
	runtime.ReadMemStats(&after)
	bytesPerHit := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up with one more
	t.Logf("1 kB hit: %d bytes, %.0f objects", bytesPerHit, objects)
	if info, ok := debug.ReadBuildInfo(); ok && slices.Contains(info.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed: the buffer is reallocated that often")
	}
	if bytesPerHit > hitBytesBudget || objects > hitObjectsBudget {
		t.Fatalf("a 1 kB hit allocates %d bytes in %.0f objects; pinned at %d and %d", bytesPerHit, objects, hitBytesBudget, hitObjectsBudget)
	}
}
