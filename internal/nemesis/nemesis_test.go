package nemesis

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/diag"
	"repro/internal/vfs"
)

func planOps() []OpSpec {
	return []OpSpec{
		{Class: ClassProcess, Op: "kill", Rate: 0.3},
		{Class: ClassStorage, Op: "disk-fault", Rate: 0.4, ArgN: 3},
		{Class: ClassNetwork, Op: "partition", Rate: 0.25, ArgN: 2},
		{Class: ClassIntegrity, Op: "scar", Rate: 0.35, ArgN: NumScarKinds},
	}
}

func TestPlanDeterministic(t *testing.T) {
	cfg := PlanConfig{Steps: 50, Targets: []string{"node-a", "node-b", "node-c"}}
	for seed := int64(1); seed <= 10; seed++ {
		a := Plan(seed, cfg, planOps())
		b := Plan(seed, cfg, planOps())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: plan not deterministic", seed)
		}
		if Fingerprint(a) != Fingerprint(b) {
			t.Fatalf("seed %d: fingerprints differ", seed)
		}
	}
}

func TestPlanSeedsDiffer(t *testing.T) {
	cfg := PlanConfig{Steps: 50, Targets: []string{"x"}}
	fps := map[string]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		fp := Fingerprint(Plan(seed, cfg, planOps()))
		if prev, ok := fps[fp]; ok {
			t.Fatalf("seeds %d and %d produced identical timelines", prev, seed)
		}
		fps[fp] = seed
	}
}

// The partitioned-streams property: dropping one class's ops entirely must
// not move any other class's events.
func TestPlanClassStreamsIndependent(t *testing.T) {
	cfg := PlanConfig{Steps: 80, Targets: []string{"a", "b"}}
	only := func(events []Event, class string) []Event {
		var out []Event
		for _, e := range events {
			if e.Class == class {
				out = append(out, e)
			}
		}
		return out
	}
	full := Plan(42, cfg, planOps())
	var storageOnly []OpSpec
	for _, op := range planOps() {
		if op.Class == ClassStorage {
			storageOnly = append(storageOnly, op)
		}
	}
	solo := Plan(42, cfg, storageOnly)
	if !reflect.DeepEqual(only(full, ClassStorage), solo) {
		t.Fatalf("storage timeline shifted when other classes were removed:\nfull: %v\nsolo: %v",
			only(full, ClassStorage), solo)
	}
}

func TestEngineRecordFingerprint(t *testing.T) {
	plan := Plan(7, PlanConfig{Steps: 30, Targets: []string{"n"}}, planOps())
	eng := New(7)
	for _, e := range plan {
		eng.Record(e)
	}
	if eng.Fingerprint() != Fingerprint(plan) {
		t.Fatalf("executed fingerprint differs from plan fingerprint")
	}
	if len(eng.Timeline()) != len(plan) {
		t.Fatalf("timeline length %d != plan length %d", len(eng.Timeline()), len(plan))
	}
}

func TestFaultFSDisarmedPassthrough(t *testing.T) {
	dir := t.TempDir()
	eng := New(1)
	ffs := NewFaultFS(eng, vfs.OS{}, FaultFSConfig{ShortWriteRate: 1, WriteErrRate: 1, SyncErrRate: 1})
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello\n")); err != nil {
		t.Fatalf("disarmed write failed: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("disarmed sync failed: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ffs.ReadFile(path)
	if err != nil || string(got) != "hello\n" {
		t.Fatalf("read back %q, %v", got, err)
	}
}

func TestFaultFSInjectsFaults(t *testing.T) {
	dir := t.TempDir()
	eng := New(2)
	ffs := NewFaultFS(eng, vfs.OS{}, FaultFSConfig{WriteErrRate: 1})
	ffs.Arm(true)
	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, err = f.Write([]byte("payload"))
	if err == nil {
		t.Fatal("armed write with WriteErrRate=1 succeeded")
	}
	if !errors.Is(err, diag.ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("error %v not tagged as injected ENOSPC", err)
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	eng := New(3)
	ffs := NewFaultFS(eng, vfs.OS{}, FaultFSConfig{ShortWriteRate: 1})
	ffs.Arm(true)
	path := filepath.Join(dir, "f")
	f, err := ffs.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef\n")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("short write returned no error")
	}
	if !errors.Is(err, diag.ErrInjected) {
		t.Fatalf("error %v not tagged injected", err)
	}
	if n >= len(payload) {
		t.Fatalf("short write landed %d of %d bytes", n, len(payload))
	}
	f.Close()
	got, _ := os.ReadFile(path)
	if len(got) != n {
		t.Fatalf("on-disk %d bytes, write reported %d", len(got), n)
	}
}

func TestFaultFSSyncError(t *testing.T) {
	dir := t.TempDir()
	eng := New(4)
	ffs := NewFaultFS(eng, vfs.OS{}, FaultFSConfig{SyncErrRate: 1})
	ffs.Arm(true)
	f, err := ffs.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Sync(); !errors.Is(err, diag.ErrInjected) {
		t.Fatalf("sync error %v not tagged injected", err)
	}
}

func TestScarJournalDeterministic(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n{\"d\":4}\n")
	for kind := 0; kind < NumScarKinds; kind++ {
		a := New(9).ScarJournal(data, kind)
		b := New(9).ScarJournal(data, kind)
		if !bytes.Equal(a, b) {
			t.Fatalf("kind %d: scar not deterministic", kind)
		}
		if bytes.Equal(a, data) {
			t.Fatalf("kind %d: scar left data unchanged", kind)
		}
	}
}

// Scars must corrupt in place, never delete: every original line boundary
// survives, so intact records stay parseable and corrupt ones stay findable.
func TestScarJournalPreservesStructure(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n")
	for kind := 0; kind < NumScarKinds; kind++ {
		out := New(11).ScarJournal(data, kind)
		if len(out) < len(data) {
			t.Fatalf("kind %d: scar shrank the image (%d -> %d bytes)", kind, len(data), len(out))
		}
		inLines := bytes.Count(data, []byte("\n"))
		outLines := bytes.Count(out, []byte("\n"))
		if outLines < inLines {
			t.Fatalf("kind %d: scar destroyed a line boundary (%d -> %d lines)", kind, inLines, outLines)
		}
	}
}

func TestScarJournalEmptyInput(t *testing.T) {
	for _, data := range [][]byte{nil, []byte(""), []byte("no newline")} {
		out := New(5).ScarJournal(data, ScarBitFlip)
		if !bytes.Equal(out, data) {
			t.Fatalf("scar of %q changed to %q", data, out)
		}
	}
}
