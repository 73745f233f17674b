package flsim

import (
	"errors"
	"fmt"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// AsyncScenario replays a seeded fleet through the asynchronous
// buffered-federation mode (fl.Server.RunAsync) instead of synchronous
// rounds. The embedded Scenario supplies the fleet — size, seed,
// profiles, model, codec — exactly as the synchronous Run of the same
// scenario would assign them, so the two modes are directly
// comparable: a client the synchronous run drops at every deadline
// (Profile.Straggler) becomes a slow-but-contributing device here,
// pushing on its own (longer) training cadence.
//
// Time is a shared virtual clock. Each simulated client models local
// training as a timer of its per-device latency; the harness advances
// the clock one timer event at a time (see RunAsync), so the arrival
// order at the server — and with it the whole trace — is a pure
// function of the scenario.
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
	// Buffer forwards the arrival fan-in capacity (0 = engine default).
	Buffer int
	// MinPushInterval forwards the per-device fold rate limit.
	MinPushInterval time.Duration
	// FastLatency is the per-push training latency of ordinary clients;
	// SlowLatency the latency of Straggler-profiled clients. Both must
	// be whole milliseconds (the lockstep driver phase-offsets clients
	// by microseconds to keep timer events collision-free). Defaults:
	// 10ms and 100ms.
	FastLatency time.Duration
	SlowLatency time.Duration
}

// AsyncResult is a completed asynchronous simulation.
type AsyncResult struct {
	// Selected / Rejected mirror the synchronous Result.
	Selected int
	Rejected int
	// Trace holds one entry per applied model version.
	Trace []fl.RoundStats
	// Final is the model after the last application (aliases the
	// scenario's Model slice).
	Final []*tensor.Tensor
	// Profiles are the assigned per-client profiles, in client order.
	Profiles []Profile
	// Elapsed is the virtual time the session consumed.
	Elapsed time.Duration
	// Idle is always 0: with no round barrier, no device ever waits on
	// another's deadline. Compare with the synchronous Result.Idle of
	// the same scenario.
	Idle time.Duration
	// Pushes / Folds / Stale / Duplicates aggregate the trace: total
	// updates pushed, folded into applications, discarded over-stale,
	// and discarded as duplicates or rate-limited.
	Pushes     int
	Folds      int
	Stale      int
	Duplicates int
}

// validate checks the async scenario and applies defaults.
func (sc *AsyncScenario) validate() error {
	if err := sc.Scenario.Validate(); err != nil {
		return err
	}
	if sc.FailureFraction > 0 {
		return errors.New("flsim: async scenarios model slowness, not failure (FailureFraction must be 0)")
	}
	if sc.SecAgg || len(sc.Protect) > 0 || sc.Shards > 1 {
		return errors.New("flsim: async mode is plaintext and flat (no SecAgg, Protect, or Shards)")
	}
	if sc.Clients > 999 {
		return errors.New("flsim: async lockstep supports at most 999 clients (microsecond phase offsets)")
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
	if sc.FastLatency <= 0 || sc.FastLatency%time.Millisecond != 0 ||
		sc.SlowLatency <= 0 || sc.SlowLatency%time.Millisecond != 0 {
		return errors.New("flsim: async latencies must be positive whole milliseconds")
	}
	return nil
}

// RunAsync executes an asynchronous scenario and returns its trace,
// deterministic for a given scenario.
//
// The lockstep driver: every live client is either parked on its
// training timer or in the middle of a push/reply exchange with the
// server (the engine's event loop processes one arrival at a time and
// re-arms the pusher synchronously). The driver advances the virtual
// clock only when every live client is parked — then jumps to exactly
// the next timer event, waking exactly one client. At most one message
// is therefore in flight at any instant, making the server's arrival
// order (and the trace) a pure function of the scenario.
func RunAsync(sc AsyncScenario) (*AsyncResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	profiles := assignProfiles(&sc.Scenario)
	clk := simclock.NewVirtual(time.Unix(0, 0))
	start := clk.Now()

	// Local training is a timer of the device's latency on clk, armed
	// by the simTrainer.
	f := &fleet{
		sc: &sc.Scenario, profiles: profiles, verifier: tz.NewVerifier(), clk: clk,
		fast: sc.FastLatency, slow: sc.SlowLatency,
	}
	conns, err := f.start(0, sc.Clients)
	if err != nil {
		return nil, err
	}

	srv := fl.NewServer(sc.Model, fl.ServerConfig{
		Rounds:     sc.Versions,
		MinClients: sc.MinClients,
		SampleSeed: sc.Seed,
		Codec:      sc.Codec,
		Clock:      clk,
		Metrics:    sc.Metrics,
		Spans:      obs.NewTraceSink(sc.Spans, clk),
		Async: fl.AsyncConfig{
			Enabled:         true,
			GoalUpdates:     sc.GoalUpdates,
			MaxStaleness:    sc.MaxStaleness,
			Buffer:          sc.Buffer,
			MinPushInterval: sc.MinPushInterval,
		},
	})
	type srvOut struct {
		n   int
		err error
	}
	done := make(chan srvOut, 1)
	go func() {
		n, err := srv.RunAsync(conns)
		done <- srvOut{n, err}
	}()

	// Lockstep loop: advance to the single next timer event once every
	// live client is parked on one. The stall guard catches a fleet
	// that can never park again (e.g. a client wedged awaiting a reply
	// the engine will not send) instead of spinning forever.
	stalled := 0
	for f.live.Load() > 0 {
		if int64(clk.Waiters()) == f.live.Load() {
			if at, ok := clk.NextAt(); ok {
				clk.Set(at)
				stalled = 0
				continue
			}
		}
		if stalled++; stalled > 200000 {
			return nil, errors.New("flsim: async lockstep stalled (a client is neither parked nor exiting)")
		}
		time.Sleep(50 * time.Microsecond)
	}
	f.wg.Wait()
	out := <-done

	res := &AsyncResult{
		Selected: out.n,
		Rejected: sc.Clients - out.n,
		Trace:    srv.Trace(),
		Final:    sc.Model,
		Profiles: profiles,
		Elapsed:  clk.Now().Sub(start),
	}
	for _, st := range res.Trace {
		res.Folds += st.Responded
		res.Stale += st.LateDiscarded
		res.Duplicates += st.Duplicates
	}
	res.Pushes = res.Folds + res.Stale + res.Duplicates
	if out.err != nil {
		return res, fmt.Errorf("flsim: async session: %w", out.err)
	}
	return res, nil
}
