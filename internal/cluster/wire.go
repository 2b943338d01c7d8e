package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/diag"
)

// The peer wire format. Every /internal/v1 exchange is JSON whose bytes
// travel with their CRC32C in the X-Detserve-Sum header, in both directions,
// and goes through exactly two functions: call on the sending side, accept
// (with reply) on the receiving side. TCP's checksum is famously weak and
// proxies/caches can mangle bodies wholesale, so each receiver verifies
// before decoding, and the header is mandatory: determinism makes every copy
// replaceable (recomputed, resynced, or refetched), so there is never a
// reason to decode bytes that cannot be verified. A missing, malformed or
// mismatched checksum is a typed *diag.CorruptionError; the payload is
// discarded, the event counted, the service breaker fed, and — when the
// damaged bytes were a peer's reply — that peer quarantined until it proves
// healthy again.

// sumHeader carries the CRC32C (Castagnoli, 8 hex digits) of the HTTP body.
const sumHeader = "X-Detserve-Sum"

var wireTable = crc32.MakeTable(crc32.Castagnoli)

// bodySum is the wire checksum of a payload.
func bodySum(b []byte) uint32 { return crc32.Checksum(b, wireTable) }

// setSum stamps the checksum header for body onto h.
func setSum(h http.Header, body []byte) {
	h.Set(sumHeader, fmt.Sprintf("%08x", bodySum(body)))
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
	n.ctr.corruptDetected.Add(1)
	if n.members != nil && n.members.quarantine(peer) {
		n.ctr.peerQuarantines.Add(1)
	}
	n.svc.ReportCorruption(err)
}

// call runs one peer exchange under Config.FillTimeout: in (nil for none) is
// marshalled, stamped and sent to peer; a 2xx reply is read, verified and
// decoded into out (nil to discard). The status is returned whenever a reply
// arrived, so callers map the statuses that mean something to them (404
// miss, 409 gap or divergence); err is nil only for a verified, decoded 2xx.
// A reply that fails verification is reported against peer before returning.
func (n *Node) call(ctx context.Context, method, peer, path string, in, out any) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FillTimeout)
	defer cancel()
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	setSum(req.Header, body)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
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
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s%s: %w", peer, path, err)
		}
	}
	return resp.StatusCode, nil
}

// accept reads one peer request body, verifies it and decodes it into out.
// When it returns false the refusal is already written: 422 for a body that
// fails verification (counted and reported), 400 for one that does not
// decode.
func (n *Node) accept(w http.ResponseWriter, r *http.Request, out any) bool {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	if err := verifySum(r.Header, body, "request "+r.URL.Path); err != nil {
		n.reportPeerCorruption("", err)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return false
	}
	if err := json.Unmarshal(body, out); err != nil {
		http.Error(w, "bad body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes one stamped peer response: v marshalled, or no body for nil.
func reply(w http.ResponseWriter, status int, v any) {
	var body []byte
	if v != nil {
		var err error
		if body, err = json.Marshal(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
	}
	setSum(w.Header(), body)
	w.WriteHeader(status)
	w.Write(body)
}
