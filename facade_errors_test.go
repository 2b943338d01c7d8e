package detlock_test

import (
	"errors"
	"testing"

	detlock "repro"
)

// The facade's error-path contract: malformed programs, conflicting
// configurations, and bad counts come back as typed errors — never a panic,
// never a mid-pipeline failure with the config error buried inside.

func mustNotPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

func TestFacadeMalformedIR(t *testing.T) {
	cases := []string{
		"",
		"not a module",
		"module m\nfunc main() regs 2 {\nentry:\n  jmp nowhere\n}",
		"module m\nfunc main() regs 3 {\nentry:\n  r1 = call missing(r0)\n  ret r1\n}", // undefined callee
	}
	for _, src := range cases {
		mustNotPanic(t, "ParseProgram", func() {
			if m, err := detlock.ParseProgram(src); err == nil && m != nil {
				// Some inputs parse but fail verification at simulate time;
				// that must surface as an error too.
				if _, simErr := detlock.Simulate(m, detlock.SimConfig{Deterministic: true}); simErr == nil {
					t.Errorf("malformed program %q fully accepted", src)
				}
			}
		})
	}
}

func TestFacadeConflictingSimConfig(t *testing.T) {
	m, err := detlock.ParseProgram("module m\nfunc main() regs 2 {\nentry:\n  r0 = tid\n  ret r0\n}")
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}

	// Race detection on the FCFS baseline is a configuration misuse.
	_, err = detlock.Simulate(m, detlock.SimConfig{
		Deterministic: false,
		Race:          &detlock.RaceConfig{Policy: detlock.RaceFailFast},
	})
	if !errors.Is(err, detlock.ErrRaceBackend) {
		t.Fatalf("Race+FCFS: err = %v, want ErrRaceBackend", err)
	}
	var me *detlock.MisuseError
	if !errors.As(err, &me) || me.ThreadID != -1 {
		t.Fatalf("Race+FCFS: want configuration-level *MisuseError, got %v", err)
	}
}

func TestFacadeThreadCounts(t *testing.T) {
	m, err := detlock.ParseProgram("module m\nfunc main() regs 2 {\nentry:\n  r0 = tid\n  ret r0\n}")
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}

	// Zero threads defaults to 4 — documented, and must not panic.
	mustNotPanic(t, "Simulate(Threads=0)", func() {
		res, err := detlock.Simulate(m, detlock.SimConfig{Deterministic: true})
		if err != nil {
			t.Fatalf("Threads=0: %v", err)
		}
		if len(res.Output) != 4 {
			t.Fatalf("Threads=0 ran %d threads, want default 4", len(res.Output))
		}
	})

	// Negative threads is a typed configuration error.
	mustNotPanic(t, "Simulate(Threads=-3)", func() {
		_, err := detlock.Simulate(m, detlock.SimConfig{Threads: -3, Deterministic: true})
		if !errors.Is(err, detlock.ErrBadConfig) {
			t.Fatalf("Threads=-3: err = %v, want ErrBadConfig", err)
		}
		var me *detlock.MisuseError
		if !errors.As(err, &me) {
			t.Fatalf("Threads=-3: want *MisuseError, got %v", err)
		}
	})

	// Nil module is a typed error, not a nil dereference.
	mustNotPanic(t, "Simulate(nil)", func() {
		_, err := detlock.Simulate(nil, detlock.SimConfig{Deterministic: true})
		if !errors.Is(err, detlock.ErrBadConfig) {
			t.Fatalf("nil module: err = %v, want ErrBadConfig", err)
		}
	})

	// CheckDeterminism with a non-positive run count.
	mustNotPanic(t, "CheckDeterminism(n=0)", func() {
		_, err := detlock.CheckDeterminism(m, detlock.SimConfig{}, 0)
		if !errors.Is(err, detlock.ErrBadConfig) {
			t.Fatalf("n=0: err = %v, want ErrBadConfig", err)
		}
	})
}
