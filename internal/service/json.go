package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/bin"
)

// The public API's JSON, walked once, a program text unescaped once (DESIGN §7,
// Front end). encoding/json and job.go's tags remain the definition of POST
// /v1/jobs: the decoder below may only decline, the encoder appends
// json.Encoder's bytes or nothing. A field added to Request or Result must be
// added here too; TestBinaryCodecCoversEveryField fails until it is.

// DecodeRequestJSON decodes a POST /v1/jobs body into req exactly as
// json.Unmarshal into a zero Request does. The plain shape — the exact
// lowercase keys once each, ASCII strings, decimal integers, true / false —
// is decoded in one pass; anything else is json.Unmarshal's to decode or to
// diagnose, so every error returned is its error. A source literal accepted
// before, byte for byte, yields the same string without being unescaped.
func (s *Service) DecodeRequestJSON(body []byte, req *Request) error {
	*req = Request{}
	d := reqDecoder{body: body, sources: s.sources}
	if d.request(req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(body, req)
}

// UnmarshalJSON is json.Unmarshal's decoding, error text included, but for
// threads, read as 64 bits and narrowed as the binary codec narrows it: a body
// decodes alike on every word size, and normalize refuses an overwide count.
func (q *Request) UnmarshalJSON(b []byte) error {
	type plain Request
	type Request struct {
		*plain
		Threads int64 `json:"threads"`
	}
	w := Request{(*plain)(q), int64(q.Threads)}
	err := json.Unmarshal(b, &w)
	q.Threads = bin.Narrow(w.Threads)
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		te.Field = strings.TrimPrefix(te.Field, "plain.")
	}
	return err
}

// reqDecoder is a cursor over a request body. Every method reports false at
// the first byte it is not certain encoding/json reads the same way; req may
// be half filled by then.
type reqDecoder struct {
	body    []byte
	i       int
	sources *lruCache[string, string] // accepted source literal (raw bytes) → its value
}

// plainByte reports whether a JSON string holds c as itself: ASCII from 0x20
// up, except the quote and the backslash.
func plainByte(c byte) bool { return c-0x20 < 0x60 && c != '"' && c != '\\' }

// unescape maps the byte after a backslash to its value; 0 is not one of the
// eight single-character escapes (\u is json.Unmarshal's).
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// lit skips whitespace, then consumes s if it is next.
func (d *reqDecoder) lit(s string) bool {
	for d.i < len(d.body) && (d.body[d.i] == ' ' || d.body[d.i] == '\n' || d.body[d.i] == '\t' || d.body[d.i] == '\r') {
		d.i++
	}
	if rest := d.body[d.i:]; len(rest) < len(s) || string(rest[:len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// object walks `{ "key": value, … }`, handing each key to field, which
// consumes the value and names the key's bit. A key seen twice is declined
// (encoding/json keeps the last and merges nested objects); a key holding an
// escape ends early here and matches no field.
func (d *reqDecoder) object(field func(key []byte) (bit uint, ok bool)) bool {
	if !d.lit("{") {
		return false
	}
	for seen := uint(0); !d.lit("}"); {
		if seen != 0 && !d.lit(",") || !d.lit(`"`) {
			return false
		}
		n := bytes.IndexByte(d.body[d.i:], '"')
		if n < 0 {
			return false
		}
		key := d.body[d.i : d.i+n]
		d.i += n + 1
		if !d.lit(":") {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	return true
}

func (d *reqDecoder) request(req *Request) bool {
	ok := d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "source":
			return 1 << 0, d.source(&req.Source)
		case "entry":
			return 1 << 1, d.str(&req.Entry)
		case "threads":
			var v int64
			ok := d.integer(&v)
			req.Threads = bin.Narrow(v)
			return 1 << 2, ok
		case "preset":
			return 1 << 3, d.str(&req.Preset)
		case "baseline":
			return 1 << 4, d.boolean(&req.Baseline)
		case "perturb_seed":
			return 1 << 5, d.integer(&req.PerturbSeed)
		case "race":
			return 1 << 6, d.boolean(&req.Race)
		case "deadline_ms":
			return 1 << 7, d.integer(&req.DeadlineMS)
		case "artifacts":
			return 1 << 8, d.object(func(key []byte) (uint, bool) {
				switch string(key) {
				case "schedule":
					return 1 << 0, d.boolean(&req.Artifacts.Schedule)
				case "stats":
					return 1 << 1, d.boolean(&req.Artifacts.Stats)
				case "overhead_row":
					return 1 << 2, d.boolean(&req.Artifacts.OverheadRow)
				}
				return 0, false
			})
		}
		return 0, false
	})
	return ok && d.lit("") && d.i == len(d.body) // only whitespace may follow
}

// source decodes the source string through the memo: the literal, up to the
// first quote after an even run of backslashes, is looked up by a view of its
// raw bytes, and only a literal str accepts is copied in.
func (d *reqDecoder) source(out *string) bool {
	if !d.lit(`"`) {
		return false
	}
	start, end := d.i, d.i
	for {
		n := bytes.IndexByte(d.body[end:], '"')
		if n < 0 {
			return false
		}
		if end += n; (end-len(bytes.TrimRight(d.body[:end], `\`)))%2 == 0 {
			break
		}
		end++
	}
	raw := d.body[start:end]
	if v, ok := d.sources.get(unsafe.String(unsafe.SliceData(raw), len(raw))); ok {
		*out = v
		d.i = end + 1
		return true
	}
	d.i = start - 1 // str consumes the opening quote itself
	ok := d.str(out)
	if ok && d.i == end+1 { // str closed the literal where the scan did
		d.sources.add(string(raw), *out)
	}
	return ok
}

// str decodes a string: one scan finds its end and counts its escapes, then
// it is built in one allocation.
func (d *reqDecoder) str(out *string) bool {
	if !d.lit(`"`) {
		return false
	}
	body, i, escapes := d.body, d.i, 0 // locals: this loop sees most of a request's bytes
	for ; ; i++ {
		for i < len(body) && plainByte(body[i]) {
			i++
		}
		if i == len(body) {
			return false
		}
		if body[i] == '"' {
			break
		}
		// A backslash, or a byte json escapes, replaces or refuses.
		if i++; body[i-1] != '\\' || i == len(body) || unescape[body[i]] == 0 {
			return false
		}
		escapes++
	}
	raw := body[d.i:i]
	d.i = i + 1
	if escapes == 0 {
		*out = string(raw)
		return true
	}
	var sb strings.Builder
	sb.Grow(len(raw) - escapes)
	for {
		k := bytes.IndexByte(raw, '\\')
		if k < 0 {
			sb.Write(raw)
			*out = sb.String()
			return true
		}
		sb.Write(raw[:k])
		sb.WriteByte(unescape[raw[k+1]])
		raw = raw[k+2:]
	}
}

// integer decodes -?(0|[1-9][0-9]{0,17}): no leading zero, nothing that
// could leave an int64, and whatever follows (a fraction, an exponent, a
// 19th digit) is left for the caller to decline.
func (d *reqDecoder) integer(out *int64) bool {
	neg := d.lit("-")
	start := d.i
	for *out = 0; d.i < len(d.body) && d.body[d.i]-'0' <= 9 && d.i-start < 18; d.i++ {
		*out = *out*10 + int64(d.body[d.i]-'0')
	}
	if neg {
		*out = -*out
	}
	return d.i > start && (d.body[start] != '0' || d.i-start == 1)
}

func (d *reqDecoder) boolean(out *bool) bool {
	*out = d.lit("true")
	return *out || d.lit("false")
}

// plainString reports whether json.Encoder writes s between quotes verbatim:
// plain bytes, less the three it escapes for HTML.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte(c) || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// AppendJSONIndent appends the bytes json.Encoder with SetIndent("", "  ")
// writes for the result, trailing newline included, and reports true; it
// appends nothing and reports false for a result it leaves to the encoder —
// one carrying a schedule or an overhead row, or a string that needs
// escaping.
func (res *Result) AppendJSONIndent(b []byte) ([]byte, bool) {
	if res.Schedule != nil || res.Overhead != nil || !plainString(res.JobID) || !plainString(res.ScheduleHash) {
		return b, false
	}
	for _, name := range res.Clockable {
		if !plainString(name) {
			return b, false
		}
	}
	str := func(key, v string) {
		b = append(append(append(b, key...), v...), `",`...)
	}
	flag := func(key string, v, omitEmpty bool) {
		if v || !omitEmpty {
			b = append(strconv.AppendBool(append(b, key...), v), ',')
		}
	}
	num := func(key string, v int64) {
		b = append(strconv.AppendInt(append(b, key...), v, 10), ',')
	}
	b = append(b, '{')
	str("\n  \"job_id\": \"", res.JobID)
	flag("\n  \"cached\": ", res.Cached, false)
	flag("\n  \"instr_cached\": ", res.InstrCached, false)
	flag("\n  \"self_checked\": ", res.SelfChecked, true)
	flag("\n  \"peer_filled\": ", res.PeerFilled, true)
	flag("\n  \"remote\": ", res.Remote, true)
	str("\n  \"schedule_hash\": \"", res.ScheduleHash)
	num("\n  \"schedule_len\": ", int64(res.ScheduleLen))
	num("\n  \"cycles\": ", res.Cycles)
	num("\n  \"wait_cycles\": ", res.WaitCycles)
	num("\n  \"acquisitions\": ", res.Acquisitions)
	num("\n  \"clock_updates\": ", res.ClockUpdates)
	if len(res.Clockable) > 0 {
		b = append(b, "\n  \"clockable\": ["...)
		for _, name := range res.Clockable {
			str("\n    \"", name)
		}
		b = append(b[:len(b)-1], "\n  ],"...)
	}
	b = append(b, "\n  \"stage_latency\": {"...)
	num("\n    \"parse_ns\": ", res.Stage.ParseNS)
	num("\n    \"instrument_ns\": ", res.Stage.InstrumentNS)
	num("\n    \"simulate_ns\": ", res.Stage.SimulateNS)
	if res.Stage.OverheadNS != 0 {
		num("\n    \"overhead_ns\": ", res.Stage.OverheadNS)
	}
	return append(b[:len(b)-1], "\n  }\n}\n"...), true
}
