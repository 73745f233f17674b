package flsim

import (
	"errors"
	"fmt"
	"time"
)

// AsyncScenario replays a seeded fleet through the asynchronous
// buffered-federation mode (fl.AsyncConfig) instead of synchronous
// rounds. The embedded Scenario supplies the fleet — size, seed,
// profiles, model, codec — exactly as the synchronous Run of the same
// scenario would assign them, so the two modes are directly
// comparable: a client the synchronous run drops at every deadline
// (Profile.Straggler) becomes a slow-but-contributing device here,
// pushing on its own (longer) training cadence.
//
// Each simulated client models local training as a timer of its
// latency on the session's virtual clock. Under the one scheduler every
// session runs on (docs/SIMULATION.md) time passes only once every
// device is parked on its timer, and then the earliest fires alone —
// ties by client index — so the arrival order at the server, and with it
// the trace, is a pure function of the scenario.
type AsyncScenario struct {
	Scenario

	// Versions is the session's buffered-application budget (the async
	// analogue of Rounds). Defaults to Scenario.Rounds.
	Versions int
	// GoalUpdates is the buffer goal K forwarded to the engine
	// (defaults to MinClients there).
	GoalUpdates int
	// MaxStaleness forwards the engine's staleness cut-off (0 = fold
	// any staleness, discounted).
	MaxStaleness int
	// FastLatency is the per-push training latency of ordinary clients;
	// SlowLatency the latency of Straggler-profiled clients. Defaults:
	// 10ms and 100ms. A client's first push is offset by (index+1)µs.
	FastLatency time.Duration
	SlowLatency time.Duration
}

// AsyncResult is a completed asynchronous simulation. Its Trace holds
// one entry per applied model version, and Idle is always 0: with no
// round barrier, no device ever waits on another's deadline (compare
// with the synchronous Result.Idle of the same scenario).
type AsyncResult struct {
	Result
	// Pushes / Folds / Stale / Duplicates aggregate the trace: total
	// updates pushed, folded into applications, discarded over-stale,
	// and discarded as duplicates.
	Pushes     int
	Folds      int
	Stale      int
	Duplicates int
}

// validate checks the async scenario, applies defaults and hands the
// asynchronously paced tiers to the engine's check, which refuses async
// under SecAgg or Shards (fl.ErrAsyncMode) and robust aggregation
// (fl.ErrRobustAsync).
func (sc *AsyncScenario) validate() error {
	if err := sc.Scenario.Validate(); err != nil {
		return err
	}
	if sc.FailureFraction > 0 || sc.DisconnectFraction > 0 {
		return errors.New("flsim: async scenarios model slowness, not failure (FailureFraction and DisconnectFraction must be 0)")
	}
	if len(sc.Protect) > 0 {
		return errors.New("flsim: async sessions ignore protection plans (Protect must be empty)")
	}
	if sc.Versions <= 0 {
		sc.Versions = sc.Rounds
	}
	if sc.FastLatency == 0 {
		sc.FastLatency = 10 * time.Millisecond
	}
	if sc.SlowLatency == 0 {
		sc.SlowLatency = 100 * time.Millisecond
	}
	if sc.FastLatency < 0 || sc.SlowLatency < 0 {
		return errors.New("flsim: async latencies must be positive")
	}
	return sc.validateEngine(sc)
}

// RunAsync executes an asynchronous scenario and returns its trace,
// deterministic for a given scenario: the flat session of Run, paced
// barrier-free by the devices' latencies.
func RunAsync(sc AsyncScenario) (*AsyncResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	res, err := runTree(sc.Scenario, assignProfiles(&sc.Scenario), treeOpts{async: &sc})
	if res == nil {
		return nil, err
	}
	out := &AsyncResult{Result: *res}
	for _, st := range res.Trace {
		out.Folds += st.Responded
		out.Stale += st.LateDiscarded
		out.Duplicates += st.Duplicates
	}
	out.Pushes = out.Folds + out.Stale + out.Duplicates
	if err != nil {
		return out, fmt.Errorf("flsim: async session: %w", err)
	}
	return out, nil
}
