package cluster

import "repro/internal/detrand"

// The LoopNet fault controls only this package's tests turn (the type's doc
// in transport.go describes each); the workload driver needs SetLatency and
// Flake alone.

// Deregister removes addr — subsequent requests to it fail like a dead host.
func (l *LoopNet) Deregister(addr string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.handlers, addr)
}

// Partition severs the link between a and b in both directions.
func (l *LoopNet) Partition(a, b string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.link(a, b).cut = true
	l.link(b, a).cut = true
}

// PartitionOneWay severs only the from → to direction: from's requests to to
// fail, to's requests to from still flow — and because responses travel the
// reverse path, to's requests *reach* from but their responses are lost.
func (l *LoopNet) PartitionOneWay(from, to string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.link(from, to).cut = true
}

// Heal restores the link between a and b in both directions (cut only; other
// degradations persist until reset explicitly).
func (l *LoopNet) Heal(a, b string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.link(a, b).cut = false
	l.link(b, a).cut = false
}

// HealAll removes every degradation on every link.
func (l *LoopNet) HealAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.links = make(map[string]*linkState)
}

// CorruptResponses flips one byte of each from → to response body with
// probability rate, drawn from a deterministic stream seeded by seed — the
// wire-corruption fault the cluster's integrity checks must catch. rate <= 0
// removes the corruption.
func (l *LoopNet) CorruptResponses(from, to string, rate float64, seed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.link(from, to)
	st.corruptRate = rate
	st.corruptRand = detrand.New(seed, 2)
	if rate <= 0 {
		st.corruptRand = nil
	}
}

// StripSums drops the X-Detserve-Sum header from every request and response
// travelling between from and to, in both directions, bodies untouched.
func (l *LoopNet) StripSums(from, to string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.link(from, to).stripSums = true
	l.link(to, from).stripSums = true
}
