// Bank: reproducible concurrent transfers — the debugging/fault-tolerance
// motivation from the paper's introduction.
//
// Four tellers process disjoint slices of a transfer list against shared
// accounts protected by per-account locks (lock ordering by account id
// avoids deadlock). Every run produces byte-identical audit logs AND
// identical intermediate states, because the deterministic runtime fixes
// the global lock-acquisition order. With ordinary mutexes the final
// balances would match (the transfers commute) but the audit log — the
// execution history a debugger or a replica needs — would differ run to
// run.
//
//	go run ./examples/bank
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	detlock "repro"
)

const (
	numAccounts = 16
	numTellers  = 4
	transfers   = 200
)

type transfer struct {
	from, to int
	amount   int64
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatalf("bank example: %v", err)
	}
}

// run processes the transfer list twice and compares the audit logs.
func run(w io.Writer) error {
	// Deterministic synthetic transfer list.
	var txs []transfer
	seed := int64(0x9E3779B9)
	for i := 0; i < transfers; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		f := int((seed>>16)&0xFFFF) % numAccounts
		t := int((seed>>32)&0xFFFF) % numAccounts
		if f == t {
			t = (t + 1) % numAccounts
		}
		txs = append(txs, transfer{f, t, (seed>>48)&0xFF + 1})
	}

	process := func() (balances [numAccounts]int64, audit []string) {
		rt := detlock.New(numTellers)
		locks := make([]*detlock.Mutex, numAccounts)
		for i := range locks {
			locks[i] = rt.NewMutex()
		}
		auditMu := rt.NewMutex()
		for i := range balances {
			balances[i] = 1000
		}
		rt.Run(func(t *detlock.Thread) {
			for i := t.ID(); i < len(txs); i += numTellers {
				tx := txs[i]
				// Account for the work of locating/validating the transfer.
				t.Tick(int64(20 + i%7))
				lo, hi := tx.from, tx.to
				if lo > hi {
					lo, hi = hi, lo
				}
				locks[lo].Lock(t)
				locks[hi].Lock(t)
				balances[tx.from] -= tx.amount
				balances[tx.to] += tx.amount
				snapshot := balances[tx.from]
				locks[hi].Unlock(t)
				locks[lo].Unlock(t)

				auditMu.Lock(t)
				audit = append(audit, fmt.Sprintf(
					"teller %d: %d -> %d amount %d (from-balance now %d)",
					t.ID(), tx.from, tx.to, tx.amount, snapshot))
				auditMu.Unlock(t)
			}
		})
		return balances, audit
	}

	bal1, audit1 := process()
	fmt.Fprintf(w, "processed %d transfers across %d accounts\n", transfers, numAccounts)
	fmt.Fprintln(w, "first audit lines:")
	for _, line := range audit1[:5] {
		fmt.Fprintln(w, "  ", line)
	}

	var total int64
	for _, b := range bal1 {
		total += b
	}
	fmt.Fprintf(w, "total balance: %d (conserved: %v)\n", total, total == numAccounts*1000)

	// Replica check: a second run must produce the identical audit log —
	// this is what makes replica-based fault tolerance possible (§I).
	bal2, audit2 := process()
	same := bal1 == bal2 && len(audit1) == len(audit2)
	if same {
		for i := range audit1 {
			if audit1[i] != audit2[i] {
				same = false
				fmt.Fprintf(w, "audit diverged at %d:\n  %s\n  %s\n", i, audit1[i], audit2[i])
				break
			}
		}
	}
	fmt.Fprintf(w, "replica run identical (balances + full audit log): %v\n", same)
	return nil
}
