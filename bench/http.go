package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"repro/internal/service"
)

// child is a detserve process on loopback ports of its own, driven over
// real HTTP: the path a client of the service sees.
//
// While a child lives, the benchmark and the child share one processor
// (pinToOneCPU; the child inherits the mask). One client and one server take
// turns, so one processor is all they can use; left to the kernel, the two
// sides of each round trip wake each other across processors, which on this
// VM costs more than the round trip's own work (the same stream ran at 2.9k
// jobs/s unpinned and 5.8k pinned) and varies with where the scheduler last
// put them. Pinned, a round trip takes the processor time the client and the
// server spend on it.
type child struct {
	e      *env
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait has returned
	output bytes.Buffer  // the child's stdout+stderr, for error reports
	base   string        // http://127.0.0.1:port
	pprof  string        // http://127.0.0.1:port of the -pprof listener

	bodies  [][]byte       // pre-encoded request per stream index
	conns   []*http.Client // one keep-alive connection per client
	control *http.Client
	unpin   func()
}

const childReadyTimeout = 10 * time.Second

// freePort asks the kernel for an unused loopback port and releases it.
// Another process can take it before the child binds; startChild then fails
// and the caller's error says so.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startChild launches detserve with two workers and returns once /readyz
// answers 200. If the child is not ready within childReadyTimeout it is
// stopped and the workload fails; it never hangs.
func startChild(e *env, reqs []service.Request) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &child{
		e:       e,
		exited:  make(chan struct{}),
		base:    fmt.Sprintf("http://127.0.0.1:%d", port),
		pprof:   fmt.Sprintf("http://127.0.0.1:%d", pport),
		control: &http.Client{Timeout: 5 * time.Second},
	}
	for i := 0; i < httpClients; i++ {
		c.conns = append(c.conns, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, b)
	}
	c.cmd = exec.Command(e.detserve,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-pprof", fmt.Sprintf("127.0.0.1:%d", pport),
		"-workers", strconv.Itoa(clients))
	c.cmd.Stdout, c.cmd.Stderr = &c.output, &c.output
	c.unpin = e.pin()
	if err := c.cmd.Start(); err != nil {
		c.unpin()
		return nil, err
	}
	e.track(c, true)
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()

	deadline := time.Now().Add(childReadyTimeout)
	for {
		resp, err := c.control.Get(c.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case <-c.exited:
			e.track(c, false)
			c.unpin()
			return nil, fmt.Errorf("detserve exited before it was ready: %s", c.output.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("detserve not ready after %v: %s", childReadyTimeout, c.output.String())
		}
	}
}

// post submits one pre-encoded job and decodes the reply.
func (c *child) post(client int, body []byte) (*service.Result, int, error) {
	resp, err := c.conns[client].Post(c.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, len(raw), fmt.Errorf("detserve answered %d: %s", resp.StatusCode, raw)
	}
	var res service.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, len(raw), err
	}
	return &res, len(raw), nil
}

func (c *child) do(client, _, idx int) (*service.Result, error) {
	res, _, err := c.post(client, c.bodies[idx])
	return res, err
}

var totalAllocLine = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAlloc reads the child's runtime.MemStats.TotalAlloc from the heap
// profile's text form, which ends with a MemStats dump and forces no GC.
func (c *child) totalAlloc() (uint64, error) {
	resp, err := c.control.Get(c.pprof + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocLine.FindSubmatch(raw)
	if m == nil {
		return 0, fmt.Errorf("no TotalAlloc in detserve's heap profile")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

func (c *child) verify() error {
	resp, err := c.control.Get(c.base + "/v1/stats")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap service.StatsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}
	return checkSnapshot(snap)
}

// close sends SIGTERM and waits for the child to exit; a child that ignores
// it for ten seconds is killed. It returns only once the process has ended.
func (c *child) close() error {
	defer c.e.track(c, false)
	defer c.unpin()
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return nil
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return fmt.Errorf("detserve ignored SIGTERM and was killed: %s", c.output.String())
	}
}
