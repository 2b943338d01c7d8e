package main

import (
	"bytes"
	"strings"
	"testing"
)

const histogram = "../../examples/programs/histogram.dir"

func TestRunVerifiesDeterminism(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-runs", "2", histogram}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "determinism verified across 2 runs\n") {
		t.Fatalf("stdout lacks the verdict:\n%s", stdout.String())
	}
}

// TestRunRefusesBadInvocations: every flag-validation branch is a usage
// error, exit 2, before any program is read.
func TestRunRefusesBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"no program", nil, "usage: detlock"},
		{"two programs", []string{histogram, histogram}, "usage: detlock"},
		{"unknown flag", []string{"-frob", histogram}, "flag provided but not defined"},
		{"zero threads", []string{"-threads", "0", histogram}, "-threads must be >= 1"},
		{"zero runs", []string{"-runs", "0", histogram}, "-runs must be >= 1"},
		{"unknown preset", []string{"-opt", "O9", histogram}, `unknown -opt "O9"`},
		{"race on baseline", []string{"-race", "-baseline", histogram}, "-race requires the deterministic backend"},
		{"unknown race policy", []string{"-race-policy", "ignore", histogram}, `unknown -race-policy "ignore"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr lacks %q:\n%s", tc.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty:\n%s", stdout.String())
			}
		})
	}
}
