package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestWorkedExampleGolden pins the built-in worked example's figures byte
// for byte. testdata/worked_example.golden is the output of the commit
// before this test existed; it is never regenerated from the code under
// test.
func TestWorkedExampleGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/worked_example.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Fatalf("worked example differs from testdata/worked_example.golden:\n%s", got)
	}
}

func TestUnknownFunction(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-f", "../../examples/programs/histogram.dir", "-fn", "nosuch"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `function "nosuch" not found`) {
		t.Fatalf("stderr: %s", stderr.String())
	}
}
