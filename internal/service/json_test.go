package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/bin"
	"repro/internal/detrand"
	"repro/internal/diag"
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

// takes reports whether the one-pass decoder, with nothing remembered,
// decodes body itself rather than handing it to encoding/json.
func takes(body []byte) bool {
	d := reqDecoder{body: body, sources: newLRU[string, string](1)}
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
// state its source memo: shared, so every body also meets the literals of the
// bodies decoded before it.
var memoService = &Service{sources: newLRU[string, string](128)}

// checkDecode is the decoder's whole contract: on any bytes it answers as
// json.Unmarshal into a zero Request does — the same error text, or the same
// value — whether its source literal is new to the memo or remembered. A body
// the decoder takes is decoded twice, and the repeat gets the first decode's
// string back.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	var want Request
	wantErr := json.Unmarshal(body, &want)
	var first string
	for pass := 0; pass < 2; pass++ { // the first fills the memo, the second hits it
		got := Request{Source: "stale", Threads: 9, Artifacts: Artifacts{Stats: true}} // a reused value is overwritten
		gotErr := memoService.DecodeRequestJSON(body, &got)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%q, pass %d:\n got error %v\nwant error %v", body, pass, gotErr, wantErr)
		}
		if wantErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q, pass %d:\n got %+v\nwant %+v", body, pass, got, want)
		}
		if pass == 1 && got.Source != "" && unsafe.StringData(got.Source) != unsafe.StringData(first) && takes(body) {
			t.Fatalf("%.80q: a repeated source literal was decoded again", body)
		}
		first = got.Source
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

// TestDecodeMemoEviction: the memo holds as many literals as the
// instrumentation cache holds texts, and a text it evicted is decoded again,
// to the same value.
func TestDecodeMemoEviction(t *testing.T) {
	s := New(Config{Workers: 1, InstrCacheSize: 1})
	defer s.Close(context.Background())
	bodies := [][]byte{[]byte(`{"source":"text a\n"}`), []byte(`{"source":"text b\n"}`)}
	var last [2]string
	for round := 0; round < 3; round++ {
		for i, body := range bodies {
			var req Request
			if err := s.DecodeRequestJSON(body, &req); err != nil || req.Source != fmt.Sprintf("text %c\n", 'a'+i) {
				t.Fatalf("round %d, text %d: %q, %v", round, i, req.Source, err)
			}
			if round > 0 && unsafe.StringData(req.Source) == unsafe.StringData(last[i]) {
				t.Fatalf("round %d: text %d was answered from the memo after the other text evicted it", round, i)
			}
			last[i] = req.Source
			if n := s.sources.len(); n != 1 {
				t.Fatalf("the memo holds %d literals, capacity 1", n)
			}
		}
	}
}

// TestDecodeRepeatAllocs: a remembered source costs a lookup, not a copy.
func TestDecodeRepeatAllocs(t *testing.T) {
	body := detloadBody(t)
	s := &Service{sources: newLRU[string, string](1)}
	var req Request
	if err := s.DecodeRequestJSON(body, &req); err != nil {
		t.Fatal(err)
	}
	// One object is the preset's three bytes, which are not remembered.
	if n := testing.AllocsPerRun(100, func() { s.DecodeRequestJSON(body, &req) }); n > 1 {
		t.Fatalf("a repeated 1 kB request allocates %.0f objects, want 1", n)
	}
}

// needsEncoder is the test's own statement of what AppendJSONIndent hands
// over: bytes json.Encoder would not write verbatim.
func needsEncoder(s string) bool {
	for _, c := range []byte(s) {
		if c < 0x20 || c >= 0x80 || strings.IndexByte(`"\<>&`, c) >= 0 {
			return true
		}
	}
	return false
}

func encoderBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendJSONIndentMatchesEncoder freezes the public reply: for every
// result the append encoder accepts it writes json.Encoder's bytes, and it
// accepts exactly the results with no schedule, no overhead row and no string
// that needs escaping.
func TestAppendJSONIndentMatchesEncoder(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 200; seed++ {
		rng := detrand.New(seed, 0)
		res := randResult(rng)

		wantOK := res.Schedule == nil && res.Overhead == nil && !needsEncoder(res.JobID) && !needsEncoder(res.ScheduleHash)
		for _, name := range res.Clockable {
			wantOK = wantOK && !needsEncoder(name)
		}
		prefix := []byte("kept")
		out, ok := res.AppendJSONIndent(prefix)
		if ok != wantOK || (!ok && len(out) != len(prefix)) {
			t.Fatalf("seed %d: accepted %v (appended %d bytes), want %v: %+v", seed, ok, len(out)-len(prefix), wantOK, res)
		}

		// The same draw restricted to what the encoder accepts.
		res.Schedule, res.Overhead = nil, nil
		res.JobID, res.ScheduleHash = fmt.Sprintf("j-%d", seed), fmt.Sprintf("%016x", rng.Next())
		for i := range res.Clockable {
			res.Clockable[i] = fmt.Sprintf("fn_%d.x", i)
		}
		if seed%7 == 0 {
			res.Clockable = []string{}
		}
		out, ok = res.AppendJSONIndent(prefix)
		if want := encoderBytes(t, res); !ok || !bytes.Equal(out[len(prefix):], want) || !bytes.HasPrefix(out, prefix) {
			t.Fatalf("seed %d: accepted %v\n got %s\nwant %s", seed, ok, out, want)
		}
		for name, v := range map[string]bool{"cached": res.Cached, "instr_cached": res.InstrCached, "self_checked": res.SelfChecked,
			"peer_filled": res.PeerFilled, "remote": res.Remote, "overhead_ns": res.Stage.OverheadNS != 0,
			"clockable nil": res.Clockable == nil, "clockable many": len(res.Clockable) > 1, "negative": res.Cycles < 0} {
			seen[fmt.Sprint(name, "=", v)] = true
		}
		seen[fmt.Sprint("clockable empty=", res.Clockable != nil && len(res.Clockable) == 0)] = true
	}
	if len(seen) != 20 {
		t.Fatalf("the seeds covered %d of 20 field states: %v", len(seen), seen)
	}
	for _, s := range []string{`"`, `\`, "<", ">", "&", "\x00", "\x1f", "\n", "é", "\xff"} {
		for _, res := range []*Result{{JobID: "a" + s}, {ScheduleHash: s + "a"}, {Clockable: []string{"ok", s}}} {
			if _, ok := res.AppendJSONIndent(nil); ok {
				t.Errorf("accepted a result holding %q", s)
			}
		}
	}
}
