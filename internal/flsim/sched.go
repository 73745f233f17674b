package flsim

import (
	"sync"

	"github.com/gradsec/gradsec/internal/simclock"
)

// sched is the one virtual-time scheduler every simulated session runs
// under (docs/SIMULATION.md). Time passes only when every actor is
// parked — a device on its latency timer or on a model it will never
// answer, a tier on its deadline or on its children, an edge on its
// parent — and then exactly the earliest armed timer fires, ties broken
// by its owner's key: device i's timers carry key i, tier j's key n+j.
// It advances from the callbacks that park or release an actor (engine
// hooks, a latency timer, a device's exit, a tier's teardown), never
// from a polling goroutine.
type sched struct {
	clk *simclock.Virtual
	n   int

	mu      sync.Mutex
	devices int // asynchronous devices running, not parked on their latency timers
	tiers   []*tier
	edges   map[string]*tier // the latest edge behind each shard name
	dead    map[int]bool     // keys of torn-down tiers
}

// tier is one server process — the flat server, the root, an edge.
type tier struct {
	key  int
	name string // an edge's shard name; "" for the flat server or the root
	// answers reports whether a sampled device answers a round without
	// time passing; nil for the root, whose children are edges that
	// account for themselves.
	answers func(device string, round int) bool

	// In a round's wait, owed are the sampled children still to answer
	// without time passing (an owed device is running) and silent counts
	// those that will not.
	waiting bool
	owed    map[string]bool
	silent  int
	parked  bool // an edge whose partial the root has taken
}

// newTier enrols a running tier.
func (s *sched) newTier(name string, answers func(string, int) bool) *tier {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &tier{key: s.n + len(s.tiers), name: name, answers: answers}
	s.tiers = append(s.tiers, t)
	if name != "" {
		s.edges[name] = t
	}
	return t
}

// open is t's RoundStarted: the sampled children split into owed and
// silent, and every edge the root addresses is running again.
func (s *sched) open(t *tier, round int, sampled []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.waiting, t.owed, t.silent = true, make(map[string]bool, len(sampled)), 0
	for _, c := range sampled {
		if e := s.edges[c]; t.answers == nil && e != nil {
			e.waiting, e.parked = false, false
		}
		if t.answers == nil || t.answers(c, round) {
			t.owed[c] = true
		} else {
			t.silent++
		}
	}
	s.settle()
}

// answered takes child out of t's round — folded, sanctioned, or (an
// edge) its empty partial sent — and parks it when it is an edge.
func (s *sched) answered(t *tier, child string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(t.owed, child)
	if e := s.edges[child]; t.answers == nil && e != nil {
		e.parked = true
	}
	s.settle()
}

// leave is a tier's teardown: it and its timers leave the accounting.
// (The root stops waiting on a dead edge when it drops it.)
func (s *sched) leave(t *tier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dead[t.key] = true
	s.settle()
}

// release returns an asynchronous device's token: it is running from
// its start until it parks on its latency timer, and again from the
// timer's firing until it parks anew or exits.
func (s *sched) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.devices--
	s.settle()
}

// quiet reports whether t cannot act before time passes.
func (s *sched) quiet(t *tier) bool {
	if s.dead[t.key] || t.parked {
		return true
	}
	if len(t.owed) > 0 {
		return t.waiting && t.answers == nil // owed edges account for themselves
	}
	return t.waiting && t.silent > 0
}

// settle fires the earliest timer once every actor is parked and hands
// its owner the token. Callers hold s.mu.
func (s *sched) settle() {
	if s.devices > 0 {
		return
	}
	for _, t := range s.tiers {
		if !s.quiet(t) {
			return
		}
	}
	key, ok := s.clk.FireNext(s.dead)
	switch {
	case !ok:
	case key < s.n:
		s.devices++
	default:
		s.tiers[key-s.n].waiting = false
	}
}
