package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestOutputGolden pins the example's output byte for byte: the runtime's
// determinism makes it the same on every run, at every GOMAXPROCS and under
// the race detector. The schedule file goes to a fresh TMPDIR, spelled
// $TMPDIR in testdata/output.golden, which is the output of the commit
// before this test existed; it is never regenerated from the code under
// test.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := strings.ReplaceAll(out.String(), dir, "$TMPDIR"); got != string(want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", got)
	}
}
