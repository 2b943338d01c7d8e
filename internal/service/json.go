package service

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/bin"
)

// The public API's and the journal's JSON, walked once, a program text
// unescaped once (DESIGN §7, Front end). encoding/json and the types' tags
// remain the definition of POST /v1/jobs, its reply and a journal record: the
// decoder below may only decline, the writer appends encoding/json's bytes or
// nothing. A field added to Request or Result must be added here too, one
// added to journalRecord to its writeJSON; TestBinaryCodecCoversEveryField
// fails until it is.

// DecodeRequestJSON decodes a POST /v1/jobs body into req exactly as
// json.Unmarshal into a zero Request does. The plain shape — the exact
// lowercase keys once each, ASCII strings, decimal integers, true / false —
// is decoded in one pass; anything else is json.Unmarshal's to decode or to
// diagnose, so every error returned is its error. A source literal is
// resolved through the program table: its text is the table's string, and a
// literal the table read before, byte for byte, is not unescaped again.
func (s *Service) DecodeRequestJSON(body []byte, req *Request) error {
	*req = Request{}
	d := reqDecoder{body: body, programs: s.programs}
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

// UnmarshalJSON is decodeJSON's decoding, error text included. The plain
// shape writeJSON writes, compact or indented — the exact keys once each,
// ASCII strings, decimal integers, true / false, clockable as an array of
// strings — is decoded in one pass into a copy of res that replaces it once
// whole; anything else (a schedule, an overhead row, null, a \u escape, a
// repeated key) is decodeJSON's to decode or to diagnose.
func (res *Result) UnmarshalJSON(b []byte) error {
	r := *res
	d := reqDecoder{body: b}
	if d.result(&r) {
		*res = r
		return nil
	}
	return res.decodeJSON(b)
}

// decodeJSON is json.Unmarshal's decoding, error text included, but for
// schedule_len, read as 64 bits and narrowed as the binary codec narrows it:
// a journaled or relayed result decodes alike on every word size.
func (res *Result) decodeJSON(b []byte) error {
	type plain Result
	type Result struct {
		*plain
		ScheduleLen int64 `json:"schedule_len"`
	}
	w := Result{(*plain)(res), int64(res.ScheduleLen)}
	err := json.Unmarshal(b, &w)
	res.ScheduleLen = bin.Narrow(w.ScheduleLen)
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		te.Field = strings.TrimPrefix(te.Field, "plain.")
	}
	return err
}

// reqDecoder is a cursor over a request or a result body. Every method
// reports false at the first byte it is not certain encoding/json reads the
// same way; the value may be half filled by then.
type reqDecoder struct {
	body     []byte
	i        int
	programs *programTable // what source resolves a literal through
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

// result decodes the fields writeJSON writes. A field absent from the body
// keeps res's value, as json.Unmarshal merges into a filled value.
func (d *reqDecoder) result(res *Result) bool {
	ok := d.object(func(key []byte) (uint, bool) {
		switch string(key) {
		case "job_id":
			return 1 << 0, d.str(&res.JobID)
		case "cached":
			return 1 << 1, d.boolean(&res.Cached)
		case "instr_cached":
			return 1 << 2, d.boolean(&res.InstrCached)
		case "self_checked":
			return 1 << 3, d.boolean(&res.SelfChecked)
		case "peer_filled":
			return 1 << 4, d.boolean(&res.PeerFilled)
		case "remote":
			return 1 << 5, d.boolean(&res.Remote)
		case "schedule_hash":
			return 1 << 6, d.str(&res.ScheduleHash)
		case "schedule_len":
			var v int64
			ok := d.integer(&v)
			res.ScheduleLen = bin.Narrow(v)
			return 1 << 7, ok
		case "cycles":
			return 1 << 8, d.integer(&res.Cycles)
		case "wait_cycles":
			return 1 << 9, d.integer(&res.WaitCycles)
		case "acquisitions":
			return 1 << 10, d.integer(&res.Acquisitions)
		case "clock_updates":
			return 1 << 11, d.integer(&res.ClockUpdates)
		case "clockable":
			return 1 << 12, d.strs(&res.Clockable)
		case "stage_latency":
			return 1 << 13, d.object(func(key []byte) (uint, bool) {
				switch string(key) {
				case "parse_ns":
					return 1 << 0, d.integer(&res.Stage.ParseNS)
				case "instrument_ns":
					return 1 << 1, d.integer(&res.Stage.InstrumentNS)
				case "simulate_ns":
					return 1 << 2, d.integer(&res.Stage.SimulateNS)
				case "overhead_ns":
					return 1 << 3, d.integer(&res.Stage.OverheadNS)
				}
				return 0, false
			})
		}
		return 0, false
	})
	return ok && d.lit("") && d.i == len(d.body)
}

// strs decodes an array of strings into a new slice: empty, not nil, for
// [], as json.Unmarshal leaves it.
func (d *reqDecoder) strs(out *[]string) bool {
	if !d.lit("[") {
		return false
	}
	list := []string{}
	for !d.lit("]") {
		var s string
		if len(list) > 0 && !d.lit(",") || !d.str(&s) {
			return false
		}
		list = append(list, s)
	}
	*out = list
	return true
}

// source decodes the source string through the program table: the literal,
// up to the first quote after an even run of backslashes, is looked up by a
// view of its raw bytes among the spellings of the programs held; any other
// is decoded by str, and when the table holds its text the literal becomes
// that program's spelling. Only a literal str accepts is copied in.
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
	if v, ok := d.programs.spelt(raw); ok {
		*out = v
		d.i = end + 1
		return true
	}
	d.i = start - 1 // str consumes the opening quote itself
	ok := d.str(out)
	if ok && d.i == end+1 { // str closed the literal where the scan did
		*out = d.programs.spell(raw, *out)
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

// jsonSafe marks the bytes encoding/json writes into a string as themselves
// whatever follows them: ASCII from 0x20 up, less the quote, the backslash
// and the three it escapes for HTML. jsonEscape is the letter of the bytes
// with a short escape.
var (
	jsonSafe = func() (safe [256]bool) {
		for c := byte(0); c < utf8.RuneSelf; c++ {
			safe[c] = plainByte(c) && c != '<' && c != '>' && c != '&'
		}
		return safe
	}()
	jsonEscape = [utf8.RuneSelf]byte{'"': '"', '\\': '\\', '\b': 'b', '\f': 'f', '\n': 'n', '\r': 'r', '\t': 't'}
)

// appendJSONString appends s quoted as encoding/json writes a string: the
// quote, the backslash and \b \f \n \r \t as their short escapes, other
// control bytes and < > & as \u00XX, U+2028 and U+2029 as \u2028 and
// \u2029, and each byte that is not UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			if e := jsonEscape[c]; e != 0 {
				b = append(b, '\\', e)
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			if n == 1 {
				b = append(b, `\ufffd`...)
			} else {
				b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			}
			start = i + n
		}
		i += n
	}
	return append(append(b, s[start:]...), '"')
}

// jsonWriter appends the bytes encoding/json writes for a value walked field
// by field: json.Marshal's when compact, those of an Encoder with
// SetIndent("", "  ") when indent is set (without the Encoder's newline).
type jsonWriter struct {
	b      []byte
	indent bool
	depth  int
	empty  bool // the object or array just opened holds nothing yet
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *jsonWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next separates a member or an element from the one before it.
func (w *jsonWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

func (w *jsonWriter) newline() {
	if w.indent {
		w.b = append(w.b, '\n')
		for range w.depth {
			w.b = append(w.b, "  "...)
		}
	}
}

// key opens an object member: k is its name quoted, a tag needing no
// escaping, and a colon.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, k...)
	if w.indent {
		w.b = append(w.b, ' ')
	}
}

// The last argument of str, num and flag is the tag's omitempty option: with
// omitEmpty, a zero value leaves the member out.
const always, omitEmpty = false, true

func (w *jsonWriter) str(k, v string, omit bool) {
	if v != "" || !omit {
		w.key(k)
		w.b = appendJSONString(w.b, v)
	}
}

func (w *jsonWriter) num(k string, v int64, omit bool) {
	if v != 0 || !omit {
		w.key(k)
		w.b = strconv.AppendInt(w.b, v, 10)
	}
}

func (w *jsonWriter) flag(k string, v, omit bool) {
	if v || !omit {
		w.key(k)
		w.b = strconv.AppendBool(w.b, v)
	}
}

// writeJSON walks the request's fields as job.go's tags lay them out.
func (q *Request) writeJSON(w *jsonWriter) {
	w.open('{')
	w.str(`"source":`, q.Source, always)
	w.str(`"entry":`, q.Entry, omitEmpty)
	w.num(`"threads":`, int64(q.Threads), omitEmpty)
	w.str(`"preset":`, q.Preset, omitEmpty)
	w.flag(`"baseline":`, q.Baseline, omitEmpty)
	w.num(`"perturb_seed":`, q.PerturbSeed, omitEmpty)
	w.flag(`"race":`, q.Race, omitEmpty)
	w.num(`"deadline_ms":`, q.DeadlineMS, omitEmpty)
	w.key(`"artifacts":`)
	w.open('{')
	w.flag(`"schedule":`, q.Artifacts.Schedule, omitEmpty)
	w.flag(`"stats":`, q.Artifacts.Stats, omitEmpty)
	w.flag(`"overhead_row":`, q.Artifacts.OverheadRow, omitEmpty)
	w.close('}')
	w.close('}')
}

// writeJSON walks the result's fields as job.go's tags lay them out and
// reports true; it writes nothing and reports false for a result carrying a
// schedule or an overhead row, the artifacts it leaves to encoding/json.
func (res *Result) writeJSON(w *jsonWriter) bool {
	if res.Schedule != nil || res.Overhead != nil {
		return false
	}
	w.open('{')
	w.str(`"job_id":`, res.JobID, always)
	w.flag(`"cached":`, res.Cached, always)
	w.flag(`"instr_cached":`, res.InstrCached, always)
	w.flag(`"self_checked":`, res.SelfChecked, omitEmpty)
	w.flag(`"peer_filled":`, res.PeerFilled, omitEmpty)
	w.flag(`"remote":`, res.Remote, omitEmpty)
	w.str(`"schedule_hash":`, res.ScheduleHash, always)
	w.num(`"schedule_len":`, int64(res.ScheduleLen), always)
	w.num(`"cycles":`, res.Cycles, always)
	w.num(`"wait_cycles":`, res.WaitCycles, always)
	w.num(`"acquisitions":`, res.Acquisitions, always)
	w.num(`"clock_updates":`, res.ClockUpdates, always)
	if len(res.Clockable) > 0 {
		w.key(`"clockable":`)
		w.open('[')
		for _, name := range res.Clockable {
			w.next()
			w.b = appendJSONString(w.b, name)
		}
		w.close(']')
	}
	w.key(`"stage_latency":`)
	w.open('{')
	w.num(`"parse_ns":`, res.Stage.ParseNS, always)
	w.num(`"instrument_ns":`, res.Stage.InstrumentNS, always)
	w.num(`"simulate_ns":`, res.Stage.SimulateNS, always)
	w.num(`"overhead_ns":`, res.Stage.OverheadNS, omitEmpty)
	w.close('}')
	w.close('}')
	return true
}

// AppendJSONIndent appends the bytes json.Encoder with SetIndent("", "  ")
// writes for the result, trailing newline included, and reports true; it
// appends nothing and reports false for a result carrying a schedule or an
// overhead row, which it leaves to the encoder.
func (res *Result) AppendJSONIndent(b []byte) ([]byte, bool) {
	w := jsonWriter{b: b, indent: true}
	if !res.writeJSON(&w) {
		return b, false
	}
	return append(w.b, '\n'), true
}
