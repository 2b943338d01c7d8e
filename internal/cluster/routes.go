package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/service"
)

// The peer protocol, declared once. Each /internal/v1 exchange is one typed
// route: the request the receiver decodes (In) and the reply the caller
// decodes (Out), so a message can only be sent to the route that decodes it.
// Both ends derive from the route. The receiving end is serve: read the body,
// verify its sum, decode In, run the handler, reply. The sending end is call
// (or exchange): encode In, stamp, send, read, verify, decode Out. Every
// parameter a handler acts on travels in In, inside the checksum: no route
// reads its query. Every route is a POST.
var (
	fillRoute     = &route[fillMsg, service.Result]{"/internal/v1/result", always, (*Node).serveFill}
	offerRoute    = &route[offerMsg, none]{"/internal/v1/offer", always, (*Node).serveOffer}
	stealRoute    = &route[stealMsg, stolenJobs]{"/internal/v1/steal", always, (*Node).serveSteal}
	completeRoute = &route[completeMsg, none]{"/internal/v1/complete", always, (*Node).serveComplete}
	handoffRoute  = &route[handoffMsg, none]{"/internal/v1/handoff", always, (*Node).serveHandoff}
	journalRoute  = &route[journalHandoffMsg, none]{"/internal/v1/handoff-journal", always, (*Node).serveHandoffJournal}
	shipRoute     = &route[shipBatch, none]{"/internal/v1/ship", standbyOnly, (*Node).serveShip}
	gossipRoute   = &route[gossipMsg, View]{"/internal/v1/gossip", clusteredOnly, (*Node).serveGossip}
	joinRoute     = &route[gossipMsg, joinReply]{"/internal/v1/join", clusteredOnly, (*Node).serveJoin}
	digestRoute   = &route[digestMsg, bucketSummary]{"/internal/v1/digest", clusteredOnly, (*Node).serveDigest}
	bucketRoute   = &route[bucketMsg, []repairKey]{"/internal/v1/bucket", clusteredOnly, (*Node).serveBucket}

	routes = []peerRoute{fillRoute, offerRoute, stealRoute, completeRoute, handoffRoute, journalRoute,
		shipRoute, gossipRoute, joinRoute, digestRoute, bucketRoute}
)

// route is one peer exchange. A handler that returns a nil *Out answers 204
// with no body; a route whose reply is always empty has Out none.
type route[In, Out any] struct {
	path   string
	when   servedWhen
	handle func(n *Node, ctx context.Context, in *In) (*Out, error)
}

// none is the reply of a route that answers 204.
type none struct{}

// servedWhen is which nodes register a route. A node that does not register
// it answers the mux's 404, and a wrong method gets the mux's 405, both before
// the body is read or its sum checked: neither counts as corruption.
type servedWhen int

const (
	always        servedWhen = iota
	clusteredOnly            // gossip, join and the repair rounds need a membership view
	standbyOnly              // ship needs a ShipPath
)

// peerRoute is what the mux sees of a route.
type peerRoute interface {
	register(n *Node, mux *http.ServeMux)
}

func (r *route[In, Out]) register(n *Node, mux *http.ServeMux) {
	if (r.when == clusteredOnly && n.members == nil) || (r.when == standbyOnly && n.standby == nil) {
		return
	}
	mux.HandleFunc(http.MethodPost+" "+r.path, func(w http.ResponseWriter, req *http.Request) { r.serve(n, w, req) })
}

// serve is the receiving end: 413 for a body past maxWireBody, 422 for one
// that fails verification (counted and reported), 400 for one that does not
// decode, then whatever the handler answers — 200 with Out or 204 for a nil
// *Out, either stamped with its sum, or the status its error carries.
func (r *route[In, Out]) serve(n *Node, w http.ResponseWriter, req *http.Request) {
	in := new(In)
	var out *Out
	err := n.accept(req, in)
	if err == nil {
		out, err = r.handle(n, req.Context(), in)
	}
	var body []byte
	status := http.StatusNoContent
	if err == nil && out != nil {
		var contentType []string
		body, contentType, err = encode(out)
		w.Header()["Content-Type"] = contentType
		status = http.StatusOK
	}
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	setSum(w.Header(), body)
	w.WriteHeader(status)
	w.Write(body)
}

// call runs one exchange of r with peer under Config.FillTimeout.
func (r *route[In, Out]) call(ctx context.Context, n *Node, peer string, in *In) (*Out, error) {
	ctx, cancel := context.WithTimeout(ctx, n.cfg.FillTimeout)
	defer cancel()
	return r.exchange(ctx, n, peer, in)
}

// exchange runs one exchange of r with peer under ctx, which carries the
// deadline: in is encoded, stamped and sent; a 2xx reply is read, verified
// and decoded (nil for a 204). err is nil only for a verified, decoded 2xx;
// any other answer is a *statusError carrying the peer's status, so callers
// map the statuses that mean something to them (409 gap or divergence). A
// reply that fails verification is reported against peer before returning;
// one past maxWireBody is a *http.MaxBytesError.
func (r *route[In, Out]) exchange(ctx context.Context, n *Node, peer string, in *In) (*Out, error) {
	body, contentType, err := encode(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+peer+r.path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = contentType
	setSum(req.Header, body)
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := readBody(resp.Body, resp.ContentLength, maxWireBody)
	if err != nil {
		return nil, fmt.Errorf("%s%s: %w", peer, r.path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, refuse(resp.StatusCode, "%s%s: status %d: %s", peer, r.path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if err := verifySum(resp.Header, raw, "reply from ", peer, r.path); err != nil {
		n.reportPeerCorruption(peer, err)
		return nil, err
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	out := new(Out)
	if err := decode(raw, out); err != nil {
		return nil, fmt.Errorf("%s%s: %w", peer, r.path, err)
	}
	return out, nil
}

// statusError is a refused exchange and its HTTP status: what a handler
// returns to choose the status it answers, and what exchange returns when a
// peer answered with one.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }

// refuse is a *statusError with a formatted reason (%w wraps).
func refuse(code int, format string, args ...any) error {
	return &statusError{code, fmt.Errorf(format, args...)}
}

// statusOf is err's status: a *statusError's own, otherwise 500.
func statusOf(err error) int {
	if se := (*statusError)(nil); errors.As(err, &se) {
		return se.code
	}
	return http.StatusInternalServerError
}
