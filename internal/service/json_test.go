package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bin"
	"repro/internal/detrand"
	"repro/internal/diag"
	"repro/internal/harness"
	"repro/internal/trace"
)

// detloadBody is what a client of POST /v1/jobs sends: json.Marshal of a
// Request around a real program text.
func detloadBody(t testing.TB) []byte {
	t.Helper()
	body, err := json.Marshal(Request{Source: hitPrograms(t)["1kB"], Threads: 4, Preset: "all", PerturbSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// decodeSeeds are the shapes the one-pass decoder takes, followed by the ones
// it must leave to encoding/json. TestDecodeRequestFastPath pins which is
// which; FuzzDecodeRequest starts from all of them.
var decodeSeeds = struct{ taken, declined []string }{
	taken: []string{
		`{}`,
		` { } `,
		`{"source":""}`,
		`{"source":"module m\nlocks 1\n\tx \"q\" \\ \/ \b\f\r"}`,
		`{"source":"a","entry":"main","threads":4,"preset":"O2","baseline":true,"perturb_seed":-7,"race":false,"deadline_ms":123456789012345678,"artifacts":{"schedule":true,"stats":false,"overhead_row":true}}`,
		"{\n  \"artifacts\" : { } ,\r\n\t\"threads\" : 0 , \"source\" : \"s\"\n}\n",
		`{"perturb_seed":-0,"threads":-999999999999999999}`,
		`{"source":"` + "\x7f~ !#[]" + `"}`,
		`{"source":"ends in two backslashes \\\\"}`,
		`{"source":"ends in a quote \""}`,
		`{"source":"one text\nspelt twice"}`,
	},
	declined: []string{
		`{"source":"\u0041"}`,
		`{"source":"one text\u000aspelt twice"}`,
		`{"Source":"a"}`,
		`{"source":"a","source":"b"}`,
		`{"artifacts":{"stats":true},"artifacts":{"schedule":true}}`,
		`{"artifacts":{"stats":true,"stats":false}}`,
		`{"source":null}`,
		`{"artifacts":null}`,
		`null`,
		`{"threads":1.0}`,
		`{"threads":1e3}`,
		`{"threads":01}`,
		`{"threads":-}`,
		`{"threads":-01}`,
		`{"threads":"4"}`,
		`{"perturb_seed":12345678901234567890}`,
		`{"perturb_seed":9223372036854775807}`,
		`{"deadline_ms":-9223372036854775808}`,
		`{"source":"caf` + "\xc3\xa9" + `"}`,
		`{"source":"bad` + "\xff\xfe" + `utf8"}`,
		"{\"source\":\"a\nb\"}",
		`{"source":"a\x"}`,
		`{"source":"a\'"}`,
		`{"source":"a\`,
		`{"source":"a`,
		`{"sourc\u0065":"a"}`,
		`{"unknown":1,"source":"a"}`,
		`{"race":True}`,
		`{"race":tru}`,
		`{"race":1}`,
		`{"baseline":falsey}`,
		`[]`,
		`"source"`,
		``,
		` `,
		`{`,
		`{"source"}`,
		`{"source":"a",}`,
		`{"source":"a"} x`,
		`{"source":"a"}{}`,
		`{"source":"a"}` + "\x00",
		`{"source" "a"}`,
		`{,}`,
		"\xef\xbb\xbf{}",
	},
}

// takes reports whether the one-pass decoder, with no program held,
// decodes body itself rather than handing it to encoding/json.
func takes(body []byte) bool {
	d := reqDecoder{body: body, programs: newProgramTable(1)}
	return d.request(&Request{})
}

// TestDecodeRequestFastPath: the one-pass decoder takes the plain shapes — a
// regression that declines everything would pass every differential test and
// show only as a slower benchmark — and declines each shape whose meaning or
// diagnosis is encoding/json's to give.
func TestDecodeRequestFastPath(t *testing.T) {
	take := func(body string) bool { return takes([]byte(body)) }
	for _, body := range append([]string{string(detloadBody(t))}, decodeSeeds.taken...) {
		if !take(body) {
			t.Errorf("declined a plain request: %.80q", body)
		}
	}
	for _, body := range decodeSeeds.declined {
		if take(body) {
			t.Errorf("took a request it must leave to encoding/json: %q", body)
		}
	}
	// Every program the repository ships is plain once marshalled.
	for name, src := range splashSources(t) {
		body, _ := json.Marshal(Request{Source: src})
		if !take(string(body)) {
			t.Errorf("declined %s's request", name)
		}
	}
}

// memoService is the Service checkDecode decodes through, the decoder's only
// state its program table: shared, so every body also meets the texts and
// literals of the bodies decoded before it.
var memoService = &Service{programs: newProgramTable(128)}

// holdText files a bare instrumentation entry for text, so that the table
// holds a program of it, and returns the table's string for it.
func holdText(tab *programTable, text string) string {
	req := Request{Source: text}
	tab.add(&program{text: text}, &req, &instrEntry{})
	p, _ := tab.get(&req, false)
	return p.text
}

// checkDecode is the decoder's whole contract: on any bytes it answers as
// json.Unmarshal into a zero Request does — the same error text, or the same
// value — whether its text is new to the program table, held by it, or held
// with this very literal as its spelling. A body the decoder takes is
// decoded three times: the first decode's text is then held, and both
// repeats get the table's string back.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(body, &want)
	var held string
	for pass := 0; pass < 3; pass++ { // a new text, a held text, a held spelling
		got := Request{Source: "stale", Threads: 9, Artifacts: Artifacts{Stats: true}} // a reused value is overwritten
		gotErr := memoService.DecodeRequestJSON(body, &got)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q, pass %d:\n got error %v\nwant error %v", body, pass, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q, pass %d:\n got %+v\nwant %+v", body, pass, got, want)
		}
		if pass > 0 && got.Source != "" && unsafe.StringData(got.Source) != unsafe.StringData(held) && takes(body) {
			t.Fatalf("%.80q, pass %d: a source literal of a held text was not resolved to the table's string", body, pass)
		}
		if pass == 0 && gotErr == nil && got.Source != "" {
			held = holdText(memoService.programs, got.Source)
		}
	}
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(detloadBody(f))
	for _, body := range append(decodeSeeds.taken, decodeSeeds.declined...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// TestDecodeRequestMatchesJSON drives the same contract from generated
// requests: marshalled plainly, indented, and with every source byte escaped
// the long way.
// TestOverwideThreadsAreMisuse feeds a thread count wider than 32 bits through
// the JSON decoders and the binary one. Each decodes it, on every word size,
// to a count normalize refuses as a misuse: the exact count on 64 bits, the
// widest int on 32. Before, a 32-bit build's JSON refused it as malformed and
// its binary codec read it as 4 and ran it.
func TestOverwideThreadsAreMisuse(t *testing.T) {
	const wide = 1<<32 + 4
	src := "module m\nfunc main() regs 1 {\nentry:\n  ret 0\n}\n"
	body := []byte(fmt.Sprintf(`{"source":%q,"threads":%d}`, src, int64(wide)))
	checkDecode(t, body)
	var fromJSON, fromBinary Request
	if err := memoService.DecodeRequestJSON(body, &fromJSON); err != nil {
		t.Fatal(err)
	}
	// The request's frame ends with threads, perturb_seed and deadline_ms,
	// zero here, one byte each.
	frame := (&Request{Source: src}).AppendBinary(nil)
	frame = append(binary.AppendVarint(frame[:len(frame)-3], wide), 0, 0)
	r := bin.NewReader(frame)
	fromBinary.DecodeBinary(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1})
	defer svc.Close(context.Background())
	for name, req := range map[string]Request{"json": fromJSON, "binary": fromBinary} {
		if req.Threads != bin.Narrow(wide) {
			t.Errorf("%s: threads = %d, want %d", name, req.Threads, bin.Narrow(wide))
		}
		_, err := svc.Do(context.Background(), req)
		if !errors.Is(err, diag.ErrBadConfig) || Classify(err) != "misuse" {
			t.Errorf("%s: err = %v (class %q), want a misuse", name, err, Classify(err))
		}
	}
}

// TestWideResultCountsReplay: a result's schedule_len and an overhead row's
// clockable wider than 32 bits decode on every word size, narrowed as the
// binary codec narrows them, and a log holding such a completed record
// replays with nothing quarantined. Before, a 32-bit build refused the bytes,
// so its recovery quarantined a record a 64-bit build replays.
func TestWideResultCountsReplay(t *testing.T) {
	const wide = 1<<32 + 4
	body := fmt.Sprintf(`{"job_id":"job-1","schedule_hash":"00000000000000a1","schedule_len":%d,"overhead":{"clockable":%d}}`, int64(wide), int64(wide))
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.ScheduleLen != bin.Narrow(wide) || res.Overhead == nil || res.Overhead.Clockable != bin.Narrow(wide) {
		t.Fatalf("decoded %+v, overhead %+v; want both counts %d", res, res.Overhead, bin.Narrow(wide))
	}

	path := filepath.Join(t.TempDir(), "jobs.journal")
	jn, _, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.appendJob(journalRecord{Type: recSubmitted, ID: "job-1"}, &Request{Source: "module m\n"}, &program{text: "module m\n"}, true); err != nil {
		t.Fatal(err)
	}
	if err := jn.close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, frameLine([]byte(`{"type":"completed","id":"job-1","result":`+body+`}`))...)
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	jn, jobs, err := openJournal(nil, path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.close()
	if jn.quarantined != 0 || len(jobs) != 1 || !jobs[0].done || jobs[0].result == nil || jobs[0].result.ScheduleLen != bin.Narrow(wide) {
		t.Fatalf("replay: %d quarantined, jobs %+v", jn.quarantined, jobs)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, log) {
		t.Fatal("replay rewrote a log with no damage")
	}
}

func TestDecodeRequestMatchesJSON(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		req := randRequest(detrand.New(seed, 0))
		plain, _ := json.Marshal(req)
		indented, _ := json.MarshalIndent(req, "\t", " ")
		checkDecode(t, plain)
		checkDecode(t, indented)
		checkDecode(t, bytes.ReplaceAll(plain, []byte(`\n`), []byte(`\u000a`)))
		for cut := 0; cut < len(plain); cut += 1 + len(plain)/40 {
			checkDecode(t, plain[:cut])
		}
	}
}

// TestDecodeMemoEviction: the program table holds as many texts, and
// spellings, as the instrumentation cache holds entries; a literal of a held
// text resolves to the table's string, and a text it evicted is decoded
// again, to the same value.
func TestDecodeMemoEviction(t *testing.T) {
	s := New(Config{Workers: 1, InstrCacheSize: 1})
	defer s.Close(context.Background())
	texts := [2]string{fastProgram + "; a\n", fastProgram + "; b\n"}
	var last [2]string
	for round := 0; round < 3; round++ {
		for i, text := range texts {
			body, _ := json.Marshal(Request{Source: text})
			decode := func() string {
				var req Request
				if err := s.DecodeRequestJSON(body, &req); err != nil || req.Source != text {
					t.Fatalf("round %d, text %d: %q, %v", round, i, req.Source, err)
				}
				return req.Source
			}
			src := decode()
			if round > 0 && unsafe.StringData(src) == unsafe.StringData(last[i]) {
				t.Fatalf("round %d: text %d was answered from the table after the other text evicted it", round, i)
			}
			mustDo(t, s, Request{Source: src}) // the table holds src, and only src
			if again := decode(); unsafe.StringData(again) != unsafe.StringData(src) {
				t.Fatalf("round %d: text %d is held but was decoded again", round, i)
			}
			last[i] = src
			tab := s.programs
			tab.mu.Lock()
			entries, progs, spellings := tab.entries.len(), len(tab.byText), len(tab.bySpelling)
			tab.mu.Unlock()
			if entries != 1 || progs != 1 || spellings != 1 {
				t.Fatalf("the table holds %d entries, %d texts and %d spellings; capacity 1", entries, progs, spellings)
			}
		}
	}
}

// TestDecodeRepeatAllocs: a literal the program table holds costs a lookup,
// not a copy.
func TestDecodeRepeatAllocs(t *testing.T) {
	body := detloadBody(t)
	s := New(Config{Workers: 1, InstrCacheSize: 1})
	defer s.Kill()
	var req Request
	if err := s.DecodeRequestJSON(body, &req); err != nil {
		t.Fatal(err)
	}
	mustDo(t, s, req) // the table holds the text
	// One object is the preset's three bytes, which are not remembered.
	if n := testing.AllocsPerRun(100, func() { s.DecodeRequestJSON(body, &req) }); n > 1 {
		t.Fatalf("a repeated 1 kB request allocates %.0f objects, want 1", n)
	}
}

// escapes is the test's own statement of the strings encoding/json does not
// write verbatim.
func escapes(s string) bool {
	for _, c := range []byte(s) {
		if c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return true
		}
	}
	return false
}

// encoderBytes is what json.Encoder writes for v, indented as the reply is
// when indent is set, compact as a journal record otherwise.
func encoderBytes(t testing.TB, v any, indent bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendJSONIndentMatchesEncoder freezes the public reply: for every
// result without a schedule or an overhead row, strings that need escaping
// included, the append encoder writes json.Encoder's bytes, and it declines
// exactly the results carrying one of the two.
func TestAppendJSONIndentMatchesEncoder(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		rng := detrand.New(seed, 0)
		res := randResult(rng)

		wantOK := res.Schedule == nil && res.Overhead == nil
		prefix := []byte("kept")
		out, ok := res.AppendJSONIndent(prefix)
		if ok != wantOK || (!ok && len(out) != len(prefix)) {
			t.Fatalf("seed %d: accepted %v (appended %d bytes), want %v: %+v", seed, ok, len(out)-len(prefix), wantOK, res)
		}

		// The same draw without its artifacts, every third with plain strings.
		res.Schedule, res.Overhead = nil, nil
		if seed%3 == 0 {
			res.JobID, res.ScheduleHash = fmt.Sprintf("j-%d", seed), fmt.Sprintf("%016x", rng.Next())
			for i := range res.Clockable {
				res.Clockable[i] = fmt.Sprintf("fn_%d.x", i)
			}
		}
		if seed%7 == 0 {
			res.Clockable = []string{}
		}
		out, ok = res.AppendJSONIndent(prefix)
		if want := encoderBytes(t, res, true); !ok || !bytes.Equal(out[len(prefix):], want) || !bytes.HasPrefix(out, prefix) {
			t.Fatalf("seed %d: accepted %v\n got %s\nwant %s", seed, ok, out, want)
		}
		escaped := escapes(res.JobID) || escapes(res.ScheduleHash)
		for _, name := range res.Clockable {
			escaped = escaped || escapes(name)
		}
		for name, v := range map[string]bool{"cached": res.Cached, "instr_cached": res.InstrCached, "self_checked": res.SelfChecked,
			"peer_filled": res.PeerFilled, "remote": res.Remote, "overhead_ns": res.Stage.OverheadNS != 0,
			"clockable nil": res.Clockable == nil, "clockable many": len(res.Clockable) > 1, "negative": res.Cycles < 0,
			"escaped": escaped} {
			seen[fmt.Sprint(name, "=", v)] = true
		}
		seen[fmt.Sprint("clockable empty=", res.Clockable != nil && len(res.Clockable) == 0)] = true
	}
	if len(seen) != 22 {
		t.Fatalf("the seeds covered %d of 22 field states: %v", len(seen), seen)
	}
	for _, s := range []string{`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "\b", "\f", "\n", "\r", "\t", "é", "\u2028", "\u2029", "\xff", "\xe2\x80"} {
		for _, res := range []*Result{{JobID: "a" + s}, {Outcome: Outcome{ScheduleHash: s + "a"}}, {Outcome: Outcome{Clockable: []string{"ok", s}}}} {
			if out, ok := res.AppendJSONIndent(nil); !ok || !bytes.Equal(out, encoderBytes(t, res, true)) {
				t.Errorf("a result holding %q: accepted %v\n got %s\nwant %s", s, ok, out, encoderBytes(t, res, true))
			}
		}
	}
}

// TestRecordWithArtifactIsMarshalError: a result carrying a schedule or an
// overhead row, which finishRecord never journals and the writer does not
// walk, fails its append as a marshal error and leaves the journal broken, as
// an encoder failure did; nothing of it reaches the log.
func TestRecordWithArtifactIsMarshalError(t *testing.T) {
	for _, res := range []*Result{{Outcome: Outcome{Schedule: trace.New()}}, {Outcome: Outcome{Overhead: &harness.OverheadRow{}}}} {
		jn, _, err := openJournal(nil, filepath.Join(t.TempDir(), "jobs.journal"), 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		err = jn.appendJob(journalRecord{Type: recCompleted, ID: "job-1", Result: res}, nil, nil, false)
		if err == nil || !strings.HasPrefix(err.Error(), "journal: marshal: ") || len(jn.pending) != 0 {
			t.Fatalf("append: %v, %d bytes pending", err, len(jn.pending))
		}
		if err := jn.appendJob(journalRecord{Type: recSubmitted, ID: "job-2"}, &Request{Source: "m"}, &program{text: "m"}, false); !errors.Is(err, errJournalBroken) {
			t.Fatalf("the next append: %v, want errJournalBroken", err)
		}
		jn.kill()
	}
}

// FuzzRecordMatchesEncoder: the journal record writer writes json.Marshal's
// bytes, and the reply writer json.Encoder's indented ones, for records and
// results of arbitrary strings, integers and flags.
func FuzzRecordMatchesEncoder(f *testing.F) {
	f.Add("module m\n", "job-1", "prog-00", int64(4), int64(-7), uint32(0))
	f.Add(awkward, "main"+awkward, "<&>", int64(-1<<63), int64(1<<40), ^uint32(0))
	f.Add("\xe2\x80\xa8\xed\xa0\x80\xf4\x90\x80\x80", "\u2029\xc3", "", int64(0), int64(1), uint32(0x5a5a5))
	f.Fuzz(func(t *testing.T, a, b, c string, x, y int64, bits uint32) {
		bit := func(i int) bool { return bits>>i&1 != 0 }
		req := &Request{Source: a, Entry: b, Threads: int(x), Preset: c, Baseline: bit(0), PerturbSeed: y, Race: bit(1), DeadlineMS: x ^ y,
			Artifacts: Artifacts{Schedule: bit(2), Stats: bit(3), OverheadRow: bit(4)}}
		res := &Result{JobID: b, Cached: bit(5), InstrCached: bit(6), SelfChecked: bit(7), PeerFilled: bit(8), Remote: bit(9),
			Outcome: Outcome{ScheduleHash: c, ScheduleLen: int(y), Cycles: x, WaitCycles: -x, Acquisitions: y, ClockUpdates: x + y},
			Stage:   StageLatency{ParseNS: x, InstrumentNS: y, SimulateNS: x ^ y, OverheadNS: int64(bits)}}
		if bit(10) {
			res.Clockable = []string{a, c, ""}[:bits>>11&3]
		}
		pick := func(i int, s string) string {
			if bit(i) {
				return s
			}
			return ""
		}
		rec := journalRecord{Type: a, ID: b, Claim: pick(19, a), Src: pick(13, c), Error: pick(14, a), Kind: pick(15, b), Text: pick(16, c)}
		if bit(17) {
			rec.Req = req
		}
		if bit(18) {
			rec.Result = res
		}
		var w jsonWriter
		if ok := rec.writeJSON(&w); !ok || !bytes.Equal(append(w.b, '\n'), encoderBytes(t, &rec, false)) {
			t.Fatalf("record: accepted %v\n got %s\nwant %s", ok, w.b, encoderBytes(t, &rec, false))
		}
		if out, ok := res.AppendJSONIndent(nil); !ok || !bytes.Equal(out, encoderBytes(t, res, true)) {
			t.Fatalf("result: accepted %v\n got %s\nwant %s", ok, out, encoderBytes(t, res, true))
		}
	})
}

// resultDecodeSeeds are result bodies the one-pass decoder takes, then ones
// it must leave to encoding/json. TestDecodeResultFastPath pins which is
// which; FuzzDecodeResult starts from all of them.
var resultDecodeSeeds = struct{ taken, declined []string }{
	taken: []string{
		`{}`,
		`{"job_id":"job-1","cached":true,"instr_cached":false,"schedule_hash":"00000000000000a1","schedule_len":-0,"cycles":-999999999999999999,"clockable":[],"stage_latency":{}}`,
		"{\n  \"clockable\" : [ \"a\" , \"b\\n\\\"\" ] ,\r\n\t\"stage_latency\" : { \"overhead_ns\" : 7 } }\n",
		`{"self_checked":true,"peer_filled":false,"remote":true,"wait_cycles":1,"acquisitions":2,"clock_updates":3,"stage_latency":{"parse_ns":1,"instrument_ns":2,"simulate_ns":3}}`,
	},
	declined: []string{
		`{"schedule":null}`,
		`{"schedule":{"events":[]}}`,
		`{"overhead":{"clockable":3}}`,
		`{"job_id":null}`,
		`{"clockable":null}`,
		`{"stage_latency":null}`,
		`null`,
		`{"job_id":"\u0041"}`,
		`{"job_id":"caf` + "\xc3\xa9" + `"}`,
		`{"Job_ID":"a"}`,
		`{"job_id":"a","job_id":"b"}`,
		`{"stage_latency":{"parse_ns":1},"stage_latency":{"simulate_ns":2}}`,
		`{"stage_latency":{"parse_ns":1,"parse_ns":2}}`,
		`{"clockable":["a",]}`,
		`{"clockable":[,"a"]}`,
		`{"clockable":["a" "b"]}`,
		`{"clockable":[1]}`,
		`{"clockable":"a"}`,
		`{"cycles":1.5}`,
		`{"cycles":1e3}`,
		`{"cycles":9223372036854775807}`,
		`{"schedule_len":"3"}`,
		`{"cached":1}`,
		`{"unknown":1}`,
		`{"job_id":"a"} x`,
		`{"job_id":"a"`,
		`[]`,
		``,
	},
}

// takesResult reports whether the one-pass decoder decodes body itself.
func takesResult(body []byte) bool {
	d := reqDecoder{body: body}
	return d.result(&Result{})
}

// filledResult is a value decoded into on a repeat: every field the one pass
// may write set, so a field it leaves out shows as a kept value.
func filledResult() Result {
	return Result{JobID: "stale", Cached: true, Remote: true, Outcome: Outcome{
		ScheduleHash: "h", ScheduleLen: 9, Cycles: -1, Clockable: []string{"old", "older"}},
		Stage: StageLatency{ParseNS: 5, OverheadNS: 3}}
}

// checkDecodeResult is the result decoder's contract: on any bytes it
// answers as decodeJSON, the encoding/json definition, does — the same value
// or the same error text — into a zero Result, into a filled one, and again
// into what the first decode left.
func checkDecodeResult(t *testing.T, body []byte) {
	t.Helper()
	for _, start := range []func() Result{func() Result { return Result{} }, filledResult} {
		got, want := start(), start()
		for pass := 0; pass < 2; pass++ {
			gotErr, wantErr := got.UnmarshalJSON(body), want.decodeJSON(body)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%q, pass %d:\n got error %v\nwant error %v", body, pass, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q, pass %d:\n got %+v\nwant %+v", body, pass, got, want)
			}
		}
	}
}

// hitReply is the reply to a clean hit asking for its stats, as detserve
// writes it.
func hitReply() []byte {
	res := &Result{JobID: "job-123456", Cached: true, InstrCached: true, Outcome: Outcome{
		ScheduleHash: "0123456789abcdef", ScheduleLen: 22, Cycles: 2731, WaitCycles: 412, Acquisitions: 22,
		ClockUpdates: 187, Clockable: []string{"worker", "main"}},
		Stage: StageLatency{SimulateNS: 48211}}
	out, _ := res.AppendJSONIndent(nil)
	return out
}

// resultBodies are generated results as the journal and the reply write
// them, compact and indented, artifacts and all (encoding/json writes those).
func resultBodies(t testing.TB) [][]byte {
	bodies := [][]byte{hitReply()}
	for seed := int64(1); seed <= 60; seed++ {
		res := randResult(detrand.New(seed, 0))
		if res.Schedule != nil && res.Schedule.Len() > 300 { // a few kB of events say what 10,000 do
			res.Schedule = trace.New()
			res.Schedule.Record(1, 2, 3)
		}
		if seed%3 == 0 {
			res.Schedule, res.Overhead = nil, nil
			res.JobID, res.ScheduleHash = fmt.Sprintf("j-%d", seed), "00000000000000a1"
			for i := range res.Clockable {
				res.Clockable[i] = fmt.Sprintf("fn_%d.x", i)
			}
		}
		compact, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, compact, encoderBytes(t, res, true))
	}
	return bodies
}

// TestDecodeResultFastPath: the one pass takes the shapes the reply and the
// journal write for a result with plain strings — a regression declining
// everything would pass every differential test — and the seeds it must
// decline it declines.
func TestDecodeResultFastPath(t *testing.T) {
	for _, body := range append([]string{string(hitReply())}, resultDecodeSeeds.taken...) {
		if !takesResult([]byte(body)) {
			t.Errorf("declined a plain result: %q", body)
		}
	}
	for _, body := range resultDecodeSeeds.declined {
		if takesResult([]byte(body)) {
			t.Errorf("took a result it must leave to encoding/json: %q", body)
		}
	}
	var w jsonWriter // compact, as a journal record holds it
	res := Result{JobID: "job-1", Cached: true, Outcome: Outcome{ScheduleHash: "00000000000000a1", Clockable: []string{"main"}}}
	if res.writeJSON(&w); !takesResult(w.b) {
		t.Errorf("declined a journaled result: %s", w.b)
	}
}

// TestDecodeResultMatchesJSON drives checkDecodeResult over generated
// results and every cut of them.
func TestDecodeResultMatchesJSON(t *testing.T) {
	for _, body := range resultBodies(t) {
		checkDecodeResult(t, body)
		for cut := 0; cut < len(body); cut += 1 + len(body)/40 {
			checkDecodeResult(t, body[:cut])
		}
	}
}

// FuzzDecodeResult: the one-pass result decoder against encoding/json, seeded
// from the golden journal's results, generated replies and records, and the
// shapes of resultDecodeSeeds.
func FuzzDecodeResult(f *testing.F) {
	golden, err := os.ReadFile(journalWriterGolden)
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n")) {
		payload, err := unframeLine(line)
		if err != nil {
			f.Fatal(err)
		}
		var rec struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(payload, &rec); err != nil {
			f.Fatal(err)
		}
		if rec.Result != nil {
			f.Add([]byte(rec.Result))
		}
	}
	for _, body := range resultBodies(f) {
		f.Add(body)
	}
	for _, body := range append(resultDecodeSeeds.taken, resultDecodeSeeds.declined...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecodeResult(t, body) })
}

// BenchmarkDecodeResult decodes a hit's reply through encoding/json (what
// Result.UnmarshalJSON did before its one pass) and through the one pass, in
// one process.
func BenchmarkDecodeResult(b *testing.B) {
	body := hitReply()
	for _, c := range []struct {
		name   string
		decode func(*Result, []byte) error
	}{{"encoding-json", (*Result).decodeJSON}, {"one-pass", (*Result).UnmarshalJSON}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var res Result
				if err := c.decode(&res, body); err != nil || res.Cycles != 2731 {
					b.Fatalf("%+v, %v", res, err)
				}
			}
		})
	}
}
