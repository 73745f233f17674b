package flsim

import (
	"errors"
	"fmt"
	"path/filepath"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
)

// This file is the fault-injection suite: harnesses that kill a tier of
// the federation mid-round — flat server, hierarchy root, one edge — or
// sever a shard's network link, then recover the dead process from its
// write-ahead journal and drive the session to completion. Each passes
// runTree only what it changes about the session (treeOpts); the
// scenario configures everything else exactly as Run would — any fleet,
// stragglers and deadlines included, under the same virtual-time scheduler.
// Simulated devices are memoryless (updates, and the one round a
// fail-once device fails in, are pure functions of seed, client index,
// and round), so a fleet that rejoins after a crash pushes exactly the
// updates the dead process would have folded — which is what lets the
// tests assert the recovered run bit-identical to an uncrashed one.

// ErrSimCrash is the error a fault harness phase returns when the
// injected crash fired (the simulated process died as scheduled).
var ErrSimCrash = errors.New("flsim: simulated crash")

// simCrash is the panic payload of an injected crash; anything else
// escaping an engine goroutine is a real bug and re-panics.
type simCrash struct{ round int }

// CrashSpec places a crash inside a tier's session: at the start of
// Round (Folds == 0), or after the Folds-th update of Round has been
// folded — and journaled — mid-round.
type CrashSpec struct {
	Round int
	Folds int
}

// installCrash arms a CrashSpec on a tier's hooks. Both hooks fire
// on the engine's round goroutine, so the panic unwinds its Run exactly
// where a real process would die: after the round's write-ahead open
// (RoundStarted fires past the journal append) or after a fold's
// journal record.
func installCrash(hooks fl.Hooks, spec CrashSpec) fl.Hooks {
	prevStart, prevFold := hooks.RoundStarted, hooks.UpdateFolded
	folds := 0
	hooks.RoundStarted = func(round int, sampled []string) {
		if spec.Folds <= 0 && round == spec.Round {
			panic(simCrash{round})
		}
		if prevStart != nil {
			prevStart(round, sampled)
		}
	}
	hooks.UpdateFolded = func(round int, device string) {
		if spec.Folds > 0 && round == spec.Round {
			folds++
			if folds == spec.Folds {
				panic(simCrash{round})
			}
		}
		if prevFold != nil {
			prevFold(round, device)
		}
	}
	return hooks
}

// cloneModel deep-copies a model (the doomed phase of a crash scenario
// works on scratch values so recovery can replay onto the originals).
func cloneModel(model []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(model))
	for i, t := range model {
		out[i] = t.Clone()
	}
	return out
}

// runCrashThenRecover runs the scenario twice around an injected crash
// of its root tier (the flat server, or the hierarchy root): the doomed
// phase journals as opts(false) says and dies at spec's crash point, on
// scratch model values so sc.Model keeps the initial state recovery
// replays onto; the second phase is opts(true) — every journaled tier
// rebuilt from its log, same config, fresh fleet, same profiles — and
// its result is returned.
func runCrashThenRecover(sc Scenario, spec CrashSpec, opts func(recover bool) treeOpts) (*Result, error) {
	profiles := assignProfiles(&sc)
	doomed := sc
	doomed.Model = cloneModel(sc.Model)
	opt := opts(false)
	opt.root.crash = &spec
	if _, err := runTree(doomed, profiles, opt); !errors.Is(err, ErrSimCrash) {
		return nil, fmt.Errorf("flsim: session ended without reaching the crash point (round %d, fold %d): %v", spec.Round, spec.Folds, err)
	}
	return runTree(sc, profiles, opts(true))
}

// RunWithCrash executes a flat scenario twice around an injected crash:
// phase one journals through journalPath and dies at spec's crash
// point; phase two recovers the server from the journal onto the
// scenario's initial model, resumes with a fresh fleet of the same
// profiles, and finishes the session. The returned result is the
// recovered process's — its trace and final model are bit-identical to
// an uncrashed run of the same scenario (committed rounds replay from
// the journal, re-run rounds refold the same memoryless updates).
func RunWithCrash(sc Scenario, spec CrashSpec, journalPath string) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Shards > 1 {
		return nil, errors.New("flsim: RunWithCrash drives the flat engine; use the RunHier* fault harnesses for hierarchy crashes")
	}
	if spec.Round < 0 || spec.Round >= sc.Rounds {
		return nil, fmt.Errorf("flsim: crash round %d outside [0,%d)", spec.Round, sc.Rounds)
	}
	return runCrashThenRecover(sc, spec, func(recover bool) treeOpts {
		return treeOpts{root: tierOpts{journal: journalPath, recover: recover}}
	})
}

// validateHierFault validates a scenario for the hierarchy fault
// harnesses: there must be a hierarchy to fault.
func validateHierFault(sc *Scenario) error {
	if sc.Shards < 2 {
		return errors.New("flsim: hierarchy fault scenarios need Shards > 1")
	}
	return sc.Validate()
}

// RunHierWithRootCrash runs a hierarchical scenario in which the root
// process dies at the start of round crashRound — taking every edge and
// client down with it, since the whole tree hangs off its connections —
// and is then recovered, together with all of its edges, from the
// write-ahead journals in dir (root.journal plus one edge journal per
// shard). The root dies pre-broadcast: its round is open but
// uncommitted in root.journal and no edge has seen it, so all three
// tiers agree on the resume point. The recovered tiers resume with a
// fresh fleet at the crashed round; the result is the recovered root's
// and is bit-identical to an uncrashed run of the same scenario.
func RunHierWithRootCrash(sc Scenario, crashRound int, dir string) (*Result, error) {
	if err := validateHierFault(&sc); err != nil {
		return nil, err
	}
	if crashRound < 0 || crashRound >= sc.Rounds {
		return nil, fmt.Errorf("flsim: root crash round %d outside [0,%d)", crashRound, sc.Rounds)
	}
	return runCrashThenRecover(sc, CrashSpec{Round: crashRound}, func(recover bool) treeOpts {
		return treeOpts{
			root: tierOpts{journal: filepath.Join(dir, "root.journal"), recover: recover},
			edge: func(s int) tierOpts {
				return tierOpts{journal: filepath.Join(dir, shardName(s)+".journal"), recover: recover}
			},
		}
	})
}

// RunHierWithEdgeCrash runs a hierarchical scenario in which one edge
// process dies at the start of its shard round crashRound while the
// root stays up: the root degrades to the surviving shards (MinShards
// must leave headroom), and at round rejoinRound the edge is recovered
// from its journal in dir and readmitted through the root's rejoin
// path, bringing its shard's clients back with it. The trace shows the
// shard count dip between crashRound and rejoinRound.
func RunHierWithEdgeCrash(sc Scenario, shard, crashRound, rejoinRound int, dir string) (*Result, error) {
	if err := validateHierFault(&sc); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= sc.Shards {
		return nil, fmt.Errorf("flsim: crash shard %d outside [0,%d)", shard, sc.Shards)
	}
	if crashRound <= 0 || crashRound >= rejoinRound || rejoinRound >= sc.Rounds {
		return nil, fmt.Errorf("flsim: need 0 < crashRound(%d) < rejoinRound(%d) < Rounds(%d)", crashRound, rejoinRound, sc.Rounds)
	}
	if sc.MinShards > sc.Shards-1 {
		return nil, errors.New("flsim: an edge crash needs MinShards headroom (MinShards <= Shards-1)")
	}
	path := filepath.Join(dir, shardName(shard)+".journal")
	crashedDown := make(chan struct{}) // closed once the dead edge's teardown and journal flush finish
	rejoined := false
	var rejoinErr error
	res, runErr := runTree(sc, assignProfiles(&sc), treeOpts{
		edge: func(s int) tierOpts {
			if s != shard {
				return tierOpts{}
			}
			return tierOpts{journal: path, crash: &CrashSpec{Round: crashRound}}
		},
		edgeDown: func(int) { close(crashedDown) },
		// Rejoin runs on the root's round goroutine and blocks until
		// the crashed edge is rebuilt — which is exactly what makes the
		// rejoin round deterministic.
		beforeRound: func(t *tree, round int) []fl.Conn {
			if round != rejoinRound || rejoined || rejoinErr != nil {
				return nil
			}
			<-crashedDown
			conn, err := t.startEdge(shard, tierOpts{journal: path, recover: true})
			if err != nil {
				rejoinErr = err
				return nil
			}
			rejoined = true
			return []fl.Conn{conn}
		},
	})
	if runErr == nil && rejoinErr != nil {
		runErr = fmt.Errorf("flsim: rejoining crashed shard: %w", rejoinErr)
	}
	if runErr == nil && !rejoined {
		runErr = errors.New("flsim: crashed shard never rejoined")
	}
	return res, runErr
}

// RunHierWithPartition runs a hierarchical scenario in which shard's
// link to the root is severed just before round severRound
// — a network partition, not a process crash: the edge and its clients
// are healthy but unreachable, the root drops the shard and degrades to
// the survivors for the rest of the session (MinShards must leave
// headroom). No journals are involved; this scenario is about graceful
// degradation, not durability.
func RunHierWithPartition(sc Scenario, shard, severRound int) (*Result, error) {
	if err := validateHierFault(&sc); err != nil {
		return nil, err
	}
	if shard < 0 || shard >= sc.Shards {
		return nil, fmt.Errorf("flsim: severed shard %d outside [0,%d)", shard, sc.Shards)
	}
	if severRound <= 0 || severRound >= sc.Rounds {
		return nil, fmt.Errorf("flsim: sever round %d outside (0,%d)", severRound, sc.Rounds)
	}
	if sc.MinShards > sc.Shards-1 {
		return nil, errors.New("flsim: a partition needs MinShards headroom (MinShards <= Shards-1)")
	}
	return runTree(sc, assignProfiles(&sc), treeOpts{beforeRound: func(t *tree, round int) []fl.Conn {
		if round == severRound {
			// The partition: the link drops before the round samples and
			// broadcasts, so the send fails and the root drops the shard.
			_ = t.edgeConns[shard].Close()
		}
		return nil
	}})
}
