package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRefusesBadInvocations: every flag-validation branch is a usage
// error, exit 2, before any simulation runs.
func TestRunRefusesBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"zero threads", []string{"-threads", "0"}, "-threads must be >= 1 (got 0)"},
		{"negative workers", []string{"-j", "-1"}, "-j must be >= 0 (got -1)"},
		{"unknown benchmark", []string{"-bench", "nosuch"}, `unknown -bench "nosuch"`},
		{"unknown diag benchmark", []string{"-diag", "nosuch"}, `unknown -diag "nosuch"`},
		{"stray argument", []string{"-table1", "stray"}, "unexpected arguments [stray]"},
		{"unknown flag", []string{"-frob"}, "flag provided but not defined"},
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

// TestRunIndependentOfWorkers: the sweep's cells are independent simulations,
// so one benchmark's Table I column prints the same bytes whatever the
// worker-pool size.
func TestRunIndependentOfWorkers(t *testing.T) {
	var outs [2]string
	for i, j := range []string{"1", "2"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-table1", "-bench", "water-nsq", "-j", j}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr:\n%s", j, code, stderr.String())
		}
		outs[i] = stdout.String()
	}
	if !strings.HasPrefix(outs[0], "water-nsq: baseline ") {
		t.Fatalf("-j 1 printed no water-nsq column:\n%s", outs[0])
	}
	if outs[0] != outs[1] {
		t.Fatalf("-j 1 and -j 2 differ:\n%s\n---\n%s", outs[0], outs[1])
	}
}
