package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputGolden pins the example's output byte for byte: the runtime's
// determinism makes it the same on every run, at every GOMAXPROCS and under
// the race detector. testdata/output.golden is the output of the commit
// before this test existed; it is never regenerated from the code under
// test.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", got)
	}
}
