package cluster

import (
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

// The peer wire format. Every route (routes.go) travels with the CRC32C of
// its bytes in the X-Detserve-Sum header, in both directions. TCP's checksum
// is famously weak and proxies/caches can mangle bodies wholesale, so each
// receiver verifies before decoding, and the header is mandatory:
// determinism makes every copy replaceable (recomputed, resynced, or
// refetched), so there is never a reason to decode bytes that cannot be
// verified — or to act on a parameter outside them. A missing, malformed or
// mismatched checksum is a typed *diag.CorruptionError; the payload is
// discarded, the event counted, the service breaker fed, and — when the
// damaged bytes were a peer's reply — that peer quarantined until it proves
// healthy again.
//
// Each message has exactly one encoding, chosen by its Go type. The ones
// made of keys, results, requests and schedules — fill request and reply,
// offer, steal reply, complete, handoff: what every fill and every miss pays
// for — implement frameMsg and travel as a binary frame: the version byte,
// then the message's fields in internal/bin's primitives (DESIGN §11
// tabulates the layout). The control-plane messages are JSON: no budgeted
// metric names them.

// frameMsg is implemented by the messages that travel as a binary frame.
type frameMsg interface {
	AppendBinary(b []byte) []byte
	DecodeBinary(r *bin.Reader)
}

const (
	// frameVersion opens every binary frame. A receiver that does not know
	// the byte refuses the frame: 400 for a request, a miss for a reply.
	frameVersion = 2
	frameType    = "application/x-detserve-frame"

	// maxWireBody caps the body either side reads, request or reply, before
	// its checksum is looked at: /internal/v1 shares the public listener.
	// The largest legitimate message is a journal snapshot (join reply, ship
	// resync, handoff-journal). That is the node's whole journal, every job it
	// ever journaled, not its retained job table, so nothing bounds it: the
	// cap is eight of the journal's own largest records (service's
	// maxJournalRecord), about 192 MB of journal once JSON has base64'd the
	// lines, and a long-lived node's snapshot can outgrow it (DESIGN §9).
	maxWireBody = 256 << 20
)

// The Content-Type header values, shared by every message: header values
// are replaced, never written in place.
var (
	frameTypeHeader = []string{frameType}
	jsonTypeHeader  = []string{"application/json"}
)

// encode renders v in its one encoding.
func encode(v any) (body []byte, contentType []string, err error) {
	switch m := v.(type) {
	case frameMsg:
		return m.AppendBinary(append(make([]byte, 0, 256), frameVersion)), frameTypeHeader, nil
	default:
		body, err = json.Marshal(v)
		return body, jsonTypeHeader, err
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
// already says so, otherwise read no further than one byte past the limit.
// The buffer starts at the declared length plus that byte (at most 64 kB:
// the declaration is unverified), so a body whose length is known is read
// into one allocation.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	size := int64(512)
	if declared >= 0 {
		size = min(declared+1, 64<<10)
	}
	body := make([]byte, 0, size)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := r.Read(body[len(body):min(int64(cap(body)), limit+1)])
		body = body[:len(body)+n]
		switch {
		case int64(len(body)) > limit:
			return nil, &http.MaxBytesError{Limit: limit}
		case err == io.EOF:
			return body, nil
		case err != nil:
			return nil, err
		}
	}
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

// stolenJobs is the steal reply.
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
// mismatched header is a *diag.CorruptionError whose source is the parts
// joined (they are joined only then).
func verifySum(h http.Header, body []byte, source ...string) error {
	declared := h.Get(sumHeader)
	want, err := strconv.ParseUint(declared, 16, 32)
	var detail string
	switch got := bodySum(body); {
	case declared == "":
		detail = "no " + sumHeader + " header"
	case err != nil || len(declared) != 8:
		detail = fmt.Sprintf("malformed %s header %q", sumHeader, declared)
	case got != uint32(want):
		detail = fmt.Sprintf("body checksum mismatch (declared %08x, computed %08x over %d bytes)", want, got, len(body))
	default:
		return nil
	}
	return &diag.CorruptionError{Source: strings.Join(source, ""), Detail: detail}
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

// accept reads one peer request body, verifies it and decodes it into out.
// Its error carries the refusal's status: 413 for a body past maxWireBody,
// 422 for one that fails verification (counted and reported), 400 for one
// that does not decode.
func (n *Node) accept(r *http.Request, out any) error {
	body, err := readBody(r.Body, r.ContentLength, maxWireBody)
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			return refuse(http.StatusRequestEntityTooLarge, "bad body: %w", err)
		}
		return refuse(http.StatusBadRequest, "bad body: %w", err)
	}
	if err := verifySum(r.Header, body, "request ", r.URL.Path); err != nil {
		n.reportPeerCorruption("", err)
		return refuse(http.StatusUnprocessableEntity, "%w", err)
	}
	if err := decode(body, out); err != nil {
		return refuse(http.StatusBadRequest, "bad body: %w", err)
	}
	return nil
}
