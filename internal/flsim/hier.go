package flsim

import (
	"math/rand"
	"sync"
	"time"

	"github.com/gradsec/gradsec/internal/simclock"
)

// shardRange returns shard s's contiguous client range [lo, hi): the
// fleet is partitioned in index order, so device names, profiles, and
// update values line up exactly with the flat run of the same
// scenario.
func shardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// overrideShardProfiles applies per-shard straggler/failure fractions
// on top of the fleet-wide assignment: each overridden shard redraws
// its roles from a per-shard seeded RNG, so heterogeneous edge
// profiles stay deterministic.
func overrideShardProfiles(sc *Scenario, profiles []Profile) {
	if len(sc.ShardStragglers) == 0 && len(sc.ShardFailures) == 0 {
		return
	}
	for s := 0; s < sc.Shards; s++ {
		lo, hi := shardRange(sc.Clients, sc.Shards, s)
		size := hi - lo
		sf := sc.StragglerFraction
		if len(sc.ShardStragglers) > 0 {
			sf = sc.ShardStragglers[s]
		}
		ff := sc.FailureFraction
		if len(sc.ShardFailures) > 0 {
			ff = sc.ShardFailures[s]
		}
		for i := lo; i < hi; i++ {
			profiles[i].Straggler = false
			profiles[i].FailRound = -1
		}
		rng := rand.New(rand.NewSource(sc.Seed ^ (int64(s)+1)*0x9e3779b9))
		order := rng.Perm(size)
		stragglers := int(float64(size)*sf + 0.5)
		failers := int(float64(size)*ff + 0.5)
		if stragglers+failers > size {
			failers = size - stragglers
		}
		for k := 0; k < stragglers; k++ {
			profiles[lo+order[k]].Straggler = true
		}
		for k := stragglers; k < stragglers+failers; k++ {
			profiles[lo+order[k]].FailRound = rng.Intn(sc.Rounds)
		}
	}
}

// hierWait advances the shared virtual clock once every shard with a
// round in flight is blocked on its deadline — all its answering
// sampled clients have folded (or been quarantined) and only stragglers
// remain. A flat session is the one-shard case with nobody addressing
// it. Roles are seed-deterministic, hence so is every advance — and the
// whole trace. A shard that is still folding, or has moved on to mask
// reconciliation, holds the clock: reconciliation arms its own deadline
// timer on the same clock, and an advance meant for another shard's
// stragglers would expire it before the survivors could answer. The
// same goes for a shard the root has addressed but that has not
// announced its round yet: its deadline timer is armed before its
// RoundStarted hook fires, so the clock also waits until every
// addressed shard has checked in. Hooks fire from the root's and every
// edge's round goroutine, so the state is mutex-guarded.
type hierWait struct {
	mu       sync.Mutex
	clk      *simclock.Virtual
	deadline time.Duration
	shards   []shardWait
	// addressed is the number of shards the root sent the fleet round
	// to; started counts those that have announced it.
	addressed, started int
}

// shardWait is one shard's round in flight, from RoundStarted to
// RoundClosed.
type shardWait struct {
	open        bool
	outstanding int // sampled clients that will answer and have not yet
	stragglers  int // sampled clients that never answer; 0 once their deadline fired
}

func (w *hierWait) maybeAdvance() {
	if w.started < w.addressed {
		return
	}
	blocked := false
	for i := range w.shards {
		sh := &w.shards[i]
		if !sh.open {
			continue
		}
		if sh.outstanding > 0 || sh.stragglers == 0 {
			return // still folding, or reconciling
		}
		blocked = true
	}
	if !blocked {
		return
	}
	for i := range w.shards {
		w.shards[i].stragglers = 0
	}
	w.clk.Advance(w.deadline)
}

func (w *hierWait) fleetRoundStarted(addressed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.addressed, w.started = addressed, 0
}

func (w *hierWait) roundStarted(shard, stragglers, answering int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard] = shardWait{open: true, outstanding: answering, stragglers: stragglers}
	w.started++
	w.maybeAdvance()
}

func (w *hierWait) drained(shard int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard].outstanding--
	w.maybeAdvance()
}

func (w *hierWait) roundClosed(shard int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shards[shard].open = false
	w.maybeAdvance()
}
