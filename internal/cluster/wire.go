package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/bin"
	"repro/internal/diag"
	"repro/internal/service"
)

// The peer wire format. Every /internal/v1 exchange travels with the CRC32C
// of its bytes in the X-Detserve-Sum header, in both directions, and goes
// through exactly two functions: call on the sending side, accept (with
// reply) on the receiving side. TCP's checksum is famously weak and
// proxies/caches can mangle bodies wholesale, so each receiver verifies
// before decoding, and the header is mandatory: determinism makes every copy
// replaceable (recomputed, resynced, or refetched), so there is never a
// reason to decode bytes that cannot be verified. A missing, malformed or
// mismatched checksum is a typed *diag.CorruptionError; the payload is
// discarded, the event counted, the service breaker fed, and — when the
// damaged bytes were a peer's reply — that peer quarantined until it proves
// healthy again.
//
// Each message has exactly one encoding, chosen by its Go type. The five
// made of results, requests and schedules — fill reply, offer, steal reply,
// complete, handoff: what every fill and every miss pays for — implement
// frameMsg and travel as a binary frame: the version byte, then the
// message's fields in internal/bin's primitives (DESIGN §11 tabulates the
// layout). The five control-plane messages (gossip, join, digest, ship,
// handoff-journal) are JSON: no budgeted metric names them.

// frameMsg is implemented by the messages that travel as a binary frame.
type frameMsg interface {
	AppendBinary(b []byte) []byte
	DecodeBinary(r *bin.Reader)
}

const (
	// frameVersion opens every binary frame. A receiver that does not know
	// the byte refuses the frame: 400 for a request, a miss for a reply.
	frameVersion = 1
	frameType    = "application/x-detserve-frame"

	// maxWireBody caps the body either side reads, request or reply, before
	// its checksum is looked at: /internal/v1 shares the public listener.
	// The largest legitimate message is a journal snapshot (join reply, ship
	// resync, handoff-journal): the default retained job table at the
	// corpus's largest programs is under 200 MB as JSON — eight times the
	// journal's own per-record bound, service's maxJournalRecord.
	maxWireBody = 256 << 20
)

// encode renders v (nil for no body) in its one encoding.
func encode(v any) (body []byte, contentType string, err error) {
	switch m := v.(type) {
	case nil:
		return nil, "", nil
	case frameMsg:
		return m.AppendBinary(append(make([]byte, 0, 256), frameVersion)), frameType, nil
	default:
		body, err = json.Marshal(v)
		return body, "application/json", err
	}
}

// decode parses a verified body into out. In a frame, an unknown version, a
// length the remaining bytes cannot hold and bytes left after the message are
// all errors, and none allocates from an unchecked length.
func decode(body []byte, out any) error {
	m, ok := out.(frameMsg)
	if !ok {
		return json.Unmarshal(body, out)
	}
	if len(body) == 0 || body[0] != frameVersion {
		return fmt.Errorf("not a version-%d frame", frameVersion)
	}
	r := bin.NewReader(body[1:])
	m.DecodeBinary(r)
	return r.Done()
}

// readBody reads a body of at most limit bytes. A longer one is a
// *http.MaxBytesError: unread when its declared length (-1 for unknown)
// already says so, otherwise buffered no further than the limit.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	body, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(body)) > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return body, err
}

// framePtr is a *T that is a frameMsg. appendOptional and decodeOptional carry
// a message's nil-able part: a presence byte, then the part.
type framePtr[T any] interface {
	*T
	frameMsg
}

func appendOptional[T any, P framePtr[T]](b []byte, part P) []byte {
	if part == nil {
		return append(b, 0)
	}
	return part.AppendBinary(append(b, 1))
}

func decodeOptional[T any, P framePtr[T]](r *bin.Reader) P {
	if r.Byte() == 0 {
		return nil
	}
	part := P(new(T))
	part.DecodeBinary(r)
	return part
}

// stolenJobs is the encoding shared by the steal reply and the handoff.
type stolenJobs []service.StolenJob

func (js stolenJobs) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(js)))
	for i := range js {
		b = js[i].AppendBinary(b)
	}
	return b
}

func (js *stolenJobs) DecodeBinary(r *bin.Reader) {
	*js = make(stolenJobs, r.Count(8)) // an empty job is eight bytes
	for i := range *js {
		(*js)[i].DecodeBinary(r)
	}
}

// sumHeader carries the CRC32C (Castagnoli, 8 hex digits) of the HTTP body.
const sumHeader = "X-Detserve-Sum"

var wireTable = crc32.MakeTable(crc32.Castagnoli)

// bodySum is the wire checksum of a payload.
func bodySum(b []byte) uint32 { return crc32.Checksum(b, wireTable) }

// setSum stamps the checksum header for body onto h.
func setSum(h http.Header, body []byte) {
	var raw [4]byte
	var digits [8]byte
	binary.BigEndian.PutUint32(raw[:], bodySum(body))
	hex.Encode(digits[:], raw[:])
	h.Set(sumHeader, string(digits[:]))
}

// verifySum checks body against the checksum header. A missing, malformed or
// mismatched header is a *diag.CorruptionError.
func verifySum(h http.Header, body []byte, source string) error {
	declared := h.Get(sumHeader)
	if declared == "" {
		return &diag.CorruptionError{Source: source, Detail: "no " + sumHeader + " header"}
	}
	want, err := strconv.ParseUint(declared, 16, 32)
	if err != nil || len(declared) != 8 {
		return &diag.CorruptionError{Source: source, Detail: fmt.Sprintf("malformed %s header %q", sumHeader, declared)}
	}
	if got := bodySum(body); got != uint32(want) {
		return &diag.CorruptionError{Source: source, Detail: fmt.Sprintf("body checksum mismatch (declared %08x, computed %08x over %d bytes)", want, got, len(body))}
	}
	return nil
}

// sumLines is the batch checksum journal shipping and journal handoff carry
// inside the body: CRC32C over the concatenated lines (0 for no lines).
func sumLines(lines [][]byte) uint32 {
	h := crc32.New(wireTable)
	for _, line := range lines {
		h.Write(line)
	}
	return h.Sum32()
}

// reportPeerCorruption is the one funnel for detected peer-payload damage:
// count it, quarantine the peer (it keeps serving damaged bytes until proven
// healthy — see membership.quarantine), and feed the service breaker so
// sustained corruption stops admission instead of racing the fault. peer is
// "" when the damaged bytes were a request: its sender is not known from
// verified bytes, so nobody is quarantined.
func (n *Node) reportPeerCorruption(peer string, err error) {
	n.ctr.CorruptPayloads.Add(1)
	if n.members != nil && n.members.quarantine(peer) {
		n.ctr.PeerQuarantines.Add(1)
	}
	n.svc.ReportCorruption(err)
}

// call runs one peer exchange under Config.FillTimeout.
func (n *Node) call(ctx context.Context, method, peer, path string, in, out any) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FillTimeout)
	defer cancel()
	return n.exchange(ctx, method, peer, path, in, out)
}

// exchange runs one peer exchange under ctx, which carries the deadline: in
// (nil for none) is encoded, stamped and sent to peer; a 2xx reply is read,
// verified and decoded into out (nil to discard). The status is returned
// whenever a reply arrived, so callers map the statuses that mean something
// to them (404 miss, 409 gap or divergence); err is nil only for a verified,
// decoded 2xx. A reply that fails verification is reported against peer
// before returning; one past maxWireBody is a *http.MaxBytesError.
func (n *Node) exchange(ctx context.Context, method, peer, path string, in, out any) (int, error) {
	body, contentType, err := encode(in)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	setSum(req.Header, body)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp.Body, resp.ContentLength, maxWireBody)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("%s%s: %w", peer, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s%s: status %d: %s", peer, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := verifySum(resp.Header, raw, "reply from "+peer+path); err != nil {
		n.reportPeerCorruption(peer, err)
		return resp.StatusCode, err
	}
	if out != nil {
		if err := decode(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s%s: %w", peer, path, err)
		}
	}
	return resp.StatusCode, nil
}

// accept reads one peer request body, verifies it and decodes it into out.
// When it returns false the refusal is already written: 413 for a body past
// maxWireBody, 422 for one that fails verification (counted and reported),
// 400 for one that does not decode.
func (n *Node) accept(w http.ResponseWriter, r *http.Request, out any) bool {
	body, err := readBody(r.Body, r.ContentLength, maxWireBody)
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad body: "+err.Error(), status)
		return false
	}
	if err := verifySum(r.Header, body, "request "+r.URL.Path); err != nil {
		n.reportPeerCorruption("", err)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return false
	}
	if err := decode(body, out); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes one stamped peer response: v encoded, or no body for nil.
func reply(w http.ResponseWriter, status int, v any) {
	body, contentType, err := encode(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if contentType != "" {
		w.Header().Set("Content-Type", contentType)
	}
	setSum(w.Header(), body)
	w.WriteHeader(status)
	w.Write(body)
}
