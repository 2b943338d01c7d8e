package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/diag"
	"repro/internal/vfs"
)

// Journal shipping: the origin's journal feeds its logical append stream
// (every record line, in append order) into the shipper, which batches it to
// a standby over (epoch, seq)-tagged POSTs. The standby persists the lines
// to its own journal file; warm takeover is then nothing new — open a
// service on the shipped file and let the existing recovery-by-re-execution
// finish whatever was in flight. Determinism is what makes this cheap: the
// stream needs no results to be authoritative (the standby can recompute
// them), so losing finish records to a crash or partition costs re-execution
// time, never answers.
//
// Stream repair is snapshot resync: any hole the standby detects (epoch or
// seq mismatch — standby restart, dropped batch, shipper buffer overflow) is
// answered with 409, and the shipper's next flush opens a fresh epoch
// carrying the journal's snapshot: the image the primary's own recovery would
// open, the whole log through the scrub pass, ending with its id reservation.
// The protocol is therefore self-healing from any interleaving of failures.
// The shipper's buffer is bounded; the snapshot is not, since it grows with
// the log until journal retention bounds it.

// shipBatch is one ship request.
type shipBatch struct {
	From     string   `json:"from"`
	Epoch    int64    `json:"epoch"`
	Seq      int64    `json:"seq"` // sequence number of Lines[0] within Epoch
	Snapshot bool     `json:"snapshot,omitempty"`
	Lines    [][]byte `json:"lines"`
	// Sum is the CRC32C over the concatenated Lines; the standby verifies it
	// before applying.
	Sum uint32 `json:"sum"`
}

// maxShipBuffer bounds the unacked line buffer; past it the shipper drops
// the buffer and falls back to snapshot resync (which supersedes the lines).
const maxShipBuffer = 4096

// shipper accumulates journal lines and flushes them to the standby.
type shipper struct {
	node    *Node // the exchange goes through node.call
	standby string

	// flushMu serializes flushes (ticker, Close); mu guards the buffer and
	// is held only for memory operations — record() runs under the origin
	// journal's lock and must never wait on the network.
	flushMu sync.Mutex
	mu      sync.Mutex
	buf     [][]byte
	epoch   int64
	seq     int64 // sequence of buf[0]
	resync  bool  // next flush must open a new epoch with a snapshot
}

func newShipper(node *Node, standby string) *shipper {
	return &shipper{node: node, standby: standby, resync: true}
}

// record is the service.Config.ShipRecord hook: buffer one line, never block.
func (sh *shipper) record(line []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.buf) >= maxShipBuffer {
		// The standby has been unreachable long enough to overflow the
		// buffer; drop it and let the snapshot carry the state instead.
		sh.buf, sh.resync = nil, true
		return
	}
	sh.buf = append(sh.buf, line)
}

// flush sends at most one batch. Returns the batch size on success (0 when
// idle), an error when the standby was unreachable or rejected the stream.
func (sh *shipper) flush(ctx context.Context) (int, error) {
	sh.flushMu.Lock()
	defer sh.flushMu.Unlock()

	sh.mu.Lock()
	batch := shipBatch{From: sh.node.cfg.Self, Epoch: sh.epoch, Seq: sh.seq, Lines: sh.buf}
	resync := sh.resync
	if resync {
		// New epoch: the snapshot read below supersedes everything
		// streamed and buffered so far; what record() buffers from here on
		// follows it (a line in both replays harmlessly: first submit wins,
		// last finish wins, a program id is its text).
		sh.buf, sh.resync = nil, false
	}
	sh.mu.Unlock()
	var err error
	if resync {
		batch = shipBatch{From: sh.node.cfg.Self, Epoch: sh.epoch + 1, Seq: 0, Snapshot: true}
		batch.Lines, err = sh.node.svc.JournalSnapshotRecords()
	} else if len(batch.Lines) == 0 {
		return 0, nil
	}

	if err == nil {
		batch.Sum = sumLines(batch.Lines)
		_, err = shipRoute.call(ctx, sh.node, sh.standby, &batch)
	}
	if err != nil {
		if resync || statusOf(err) == http.StatusConflict { // a gap or damaged lines: resync
			sh.mu.Lock()
			sh.resync = true
			sh.mu.Unlock()
		}
		return 0, err
	}

	sh.mu.Lock()
	switch {
	case resync:
		sh.epoch = batch.Epoch
		sh.seq = int64(len(batch.Lines))
	case !sh.resync:
		// Acked: drop exactly the lines this batch carried; record() may
		// have appended more behind them meanwhile (or overflowed, dropping
		// them all for the next resync).
		sh.buf = sh.buf[len(batch.Lines):]
		sh.seq += int64(len(batch.Lines))
	}
	sh.mu.Unlock()
	return len(batch.Lines), nil
}

// ShipFlush pushes one pending journal batch to the standby (loop body of
// the background flusher; direct entry point for deterministic tests and the
// final flush in Close).
func (n *Node) ShipFlush(ctx context.Context) (int, error) {
	if n.shipper == nil {
		return 0, nil
	}
	sent, err := n.shipper.flush(ctx)
	if err != nil {
		n.ctr.ShipFails.Add(1)
		return 0, err
	}
	if sent > 0 {
		n.ctr.ShipBatches.Add(1)
		n.ctr.ShipLines.Add(int64(sent))
	}
	return sent, nil
}

// serveShip receives a journal-shipping batch (standby side). A hole in the
// stream, or lines that do not match the batch's sum, is 409: the shipper
// opens a fresh epoch with a snapshot, which supersedes the lost or damaged
// lines — corruption repair rides the existing resync path.
func (n *Node) serveShip(_ context.Context, batch *shipBatch) (*none, error) {
	err := n.standby.apply(batch)
	if errors.Is(err, diag.ErrCorruption) {
		n.ctr.ShipCorrupt.Add(1)
		n.reportPeerCorruption("", err)
	}
	if errors.Is(err, diag.ErrCorruption) || errors.Is(err, errShipGap) {
		return nil, refuse(http.StatusConflict, "%w", err)
	}
	return nil, err
}

// errShipGap marks a hole in the shipping stream the standby cannot accept.
var errShipGap = errors.New("shipping stream gap: resync required")

// standbyStore is the receiving side: shipped lines persisted to a journal
// file a takeover service can open directly.
type standbyStore struct {
	mu    sync.Mutex
	fsys  vfs.FS
	path  string
	f     vfs.File
	epoch int64
	next  int64 // next expected seq in epoch
}

// openStandbyStore creates (or truncates) the shipped-journal file at path.
// A restarted standby starts at epoch -1, which no shipper ever streams in —
// the first batch necessarily gaps, draws a 409, and arrives again as a
// snapshot. Standby restart recovery falls out of the protocol with no
// special case.
func openStandbyStore(fsys vfs.FS, path string) (*standbyStore, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("standby: mkdir: %w", err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("standby: open %s: %w", path, err)
	}
	return &standbyStore{fsys: fsys, path: path, f: f, epoch: -1}, nil
}

// apply folds one shipped batch into the store.
func (st *standbyStore) apply(batch *shipBatch) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	// Verify before any byte lands: a damaged batch must not reach the
	// takeover journal.
	if got := sumLines(batch.Lines); got != batch.Sum {
		return &diag.CorruptionError{
			Source: fmt.Sprintf("ship batch from %s (epoch %d seq %d)", batch.From, batch.Epoch, batch.Seq),
			Detail: fmt.Sprintf("batch checksum mismatch (declared %08x, computed %08x over %d lines)", batch.Sum, got, len(batch.Lines)),
		}
	}
	if batch.Snapshot {
		// New epoch: atomically replace the file with the snapshot.
		if err := vfs.ReplaceFile(st.fsys, st.path+".tmp", st.path, bytes.Join(batch.Lines, nil)); err != nil {
			return fmt.Errorf("standby: snapshot: %w", err)
		}
		nf, err := st.fsys.OpenFile(st.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("standby: reopen: %w", err)
		}
		if st.f != nil {
			st.f.Close()
		}
		st.f = nf
		st.epoch = batch.Epoch
		st.next = batch.Seq + int64(len(batch.Lines))
		return nil
	}
	if batch.Epoch != st.epoch || batch.Seq != st.next {
		return fmt.Errorf("standby: epoch %d seq %d, have epoch %d next %d: %w",
			batch.Epoch, batch.Seq, st.epoch, st.next, errShipGap)
	}
	for _, line := range batch.Lines {
		if _, err := st.f.Write(line); err != nil {
			return fmt.Errorf("standby: append: %w", err)
		}
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("standby: sync: %w", err)
	}
	st.next += int64(len(batch.Lines))
	return nil
}

func (st *standbyStore) close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
