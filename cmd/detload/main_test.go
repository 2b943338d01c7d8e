package main

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

func TestParseArgsScenarios(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names []string
	}{
		// The committed matrix of EXPERIMENTS.md (Seeded workload matrix,
		// `detload -seed 1 -jobs 100000`), in its row order.
		{[]string{"-seed", "1", "-jobs", "100000"}, []string{
			"poisson/blend/n1", "poisson/blend/n3",
			"bursty/blend/n1", "bursty/blend/n3",
			"diurnal/blend/n1", "diurnal/blend/n3",
			"closed/blend/n1", "closed/blend/n3",
			"poisson/blend/n3+flaky",
		}},
		{[]string{"-shape", "poisson"}, []string{"poisson/blend/n1", "poisson/blend/n3"}},
		{[]string{"-nodes", "3"}, []string{"poisson/blend/n3", "bursty/blend/n3", "diurnal/blend/n3", "closed/blend/n3"}},
		{[]string{"-nemesis", "slow"}, []string{
			"poisson/blend/n1", "poisson/blend/n3+slow",
			"bursty/blend/n1", "bursty/blend/n3+slow",
			"diurnal/blend/n1", "diurnal/blend/n3+slow",
			"closed/blend/n1", "closed/blend/n3+slow",
		}},
		// The nemesis never reaches a single node.
		{[]string{"-shape", "bursty", "-nodes", "1", "-nemesis", "flaky"}, []string{"bursty/blend/n1"}},
		{[]string{"-shape", "closed", "-nodes", "3", "-nemesis", "flaky", "-mix", "generic"}, []string{"closed/generic/n3+flaky"}},
	} {
		inv, err := parseArgs(tc.args, flag.ContinueOnError)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var names []string
		for _, sc := range inv.scenarios {
			names = append(names, sc.Name)
			if sc.Arrival.Jobs != inv.jobs || sc.Arrival.RatePerSec != 2000 {
				t.Errorf("%v: %s runs %d jobs at %g/s, want %d at 2000/s", tc.args, sc.Name, sc.Arrival.Jobs, sc.Arrival.RatePerSec, inv.jobs)
			}
		}
		if !slices.Equal(names, tc.names) {
			t.Errorf("%v: scenarios\n%s\nwant\n%s", tc.args, strings.Join(names, "\n"), strings.Join(tc.names, "\n"))
		}
	}
}

func TestParseArgsSmokeAndErrors(t *testing.T) {
	inv, err := parseArgs([]string{"-smoke", "-jobs", "5", "-j", "4"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if inv.jobs != 1000 || inv.workers != 4 || inv.scenarios[0].Arrival.Jobs != 1000 {
		t.Errorf("-smoke: jobs %d, workers %d, first scenario %d jobs", inv.jobs, inv.workers, inv.scenarios[0].Arrival.Jobs)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"extra"}, "unexpected arguments [extra]"},
		{[]string{"-jobs", "0"}, "-jobs must be >= 1"},
		{[]string{"-rate", "0"}, "-rate must be positive"},
		{[]string{"-j", "-1"}, "-j must be >= 0"},
		{[]string{"-shape", "square"}, `unknown -shape "square"`},
		{[]string{"-nodes", "-2"}, "-nodes must be >= 1"},
		{[]string{"-nemesis", "fire"}, `unknown -nemesis "fire"`},
		{[]string{"-mix", "nope"}, "nope"},
	} {
		_, err := parseArgs(tc.args, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want it to contain %q", tc.args, err, tc.want)
		}
	}
}
