package hier

import (
	"errors"
	"fmt"
	"time"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/journal"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// ErrNotEnoughShards is returned when enrolment leaves fewer edges than
// MinShards, or when fewer than MinShards shard partials fold before a
// round closes.
var ErrNotEnoughShards = errors.New("hier: not enough shards")

// RootConfig configures the hierarchy root in the hierarchy's
// vocabulary. Root is a vocabulary adapter over fl.Server.Run, and
// serverConfig the translation onto its fl.ServerConfig: shards are the
// engine's peers. A caller that readmits recovered edges mid-session
// drives an edge-peer fl.Server directly and sets its Rejoin.
type RootConfig struct {
	// Rounds is the number of FL cycles to run.
	Rounds int
	// MinShards is the per-round partial floor: a round fails when
	// fewer shards contribute a non-empty partial. 0 requires every
	// enrolled edge.
	MinShards int
	// ShardDeadline bounds each round at the root: shards that have not
	// forwarded their partial when it expires are dropped for the round
	// (they stay enrolled). 0 waits for every live shard — per-round
	// wall time is then exactly the slowest shard's. Edges pace their
	// own clients with their own RoundDeadline.
	ShardDeadline time.Duration
	// Codec is the tensor codec offered to edges for the downstream
	// model broadcast (ShardDown); an edge may negotiate down. Partial
	// sums always travel exactly, whatever is negotiated.
	Codec wire.Codec
	// SecAgg announces masked secure aggregation for the whole
	// hierarchy: each edge runs its shard in masked mode with a
	// shard-scoped mask roster and forwards ring-sum partials.
	SecAgg bool
	// SecAggScaleBits is the fleet-wide fixed-point precision; every
	// shard must quantise identically or the ring sums would not
	// compose. 0 selects secagg.DefaultScaleBits.
	SecAggScaleBits int
	// MaskDegree is the fleet-wide mask-graph degree, adopted by every
	// edge for its shard-scoped rosters (fl.ServerConfig.MaskDegree): 0
	// (secagg.AutoDegree) sizes each shard round's k-regular graph from
	// its cohort, >0 pins the degree; Run rejects a negative value.
	// Shard graphs are independent (each shard's roster seeds its own
	// graph), and their reconciled ring sums compose additively at the
	// root.
	MaskDegree int
	// MinRelease, in secure-aggregation sessions, is the fleet-wide
	// release floor: a round whose composed partials fold fewer client
	// updates never publishes its aggregate (secagg.ErrCohortTooSmall).
	// Shard-level floors are the edges' own ServerConfig.MinRelease.
	// 0 disables.
	MinRelease int
	// IOTimeout bounds enrolment reads and broadcast writes on
	// deadline-capable transports. 0 disables.
	IOTimeout time.Duration
	// Clock supplies wall time for shard deadlines. Defaults to the
	// real clock; flsim injects a virtual one.
	Clock simclock.WallClock
	// Journal, when set, receives the root's write-ahead records —
	// enrolments, round opens, and committed closes carrying the
	// applied fleet mean — so a crashed root recovers with fl.Recover
	// over serverConfig to the same model and round, bit for bit.
	Journal *journal.Journal
	// Hooks observe the root lifecycle; all callbacks fire from the
	// root's round goroutine.
	Hooks Hooks
	// Metrics, when set, receives the root's fleet telemetry: round
	// counters, fan-in duration, and per-shard partial latency. Nil
	// disables metrics with no hot-path cost.
	Metrics *obs.Registry
	// Spans, when set, receives root round spans timed on Clock.
	Spans *obs.TraceSink
}

// Hooks observe the hierarchy root. Any field may be nil.
type Hooks struct {
	// RoundStarted fires after the round's ShardDown broadcast is
	// prepared, before it is distributed.
	RoundStarted func(round int, shards []string)
	// PartialFolded fires after a shard's partial is folded into the
	// round accumulator.
	PartialFolded func(round int, shard string)
	// ShardDropped fires when an edge is removed from the session
	// (transport failure or protocol violation).
	ShardDropped func(shard string, reason error)
	// RoundClosed fires after the round's aggregate is applied (or the
	// round failed).
	RoundClosed func(stats fl.RoundStats)
}

// Root drives a hierarchical FL session over a set of edge-aggregator
// connections. It is a vocabulary adapter over the fl round engine, not a
// second one: an fl.Server whose peers are edges (fl.ServerConfig.
// EdgePeers), which per round broadcasts the global model once per
// negotiated codec, folds O(shards) partial aggregates, normalises once
// over the fleet, and applies the update — all inside srv.Run. What Root
// adds is the hierarchy's vocabulary: shards, RootConfig, Hooks, and
// ErrNotEnoughShards for the engine's peer floor.
type Root struct {
	srv *fl.Server
}

// NewRoot creates a root owning the given global model state (flat
// parameter tensors; the slice is updated in place).
func NewRoot(state []*tensor.Tensor, cfg RootConfig) *Root {
	return &Root{fl.NewServer(state, cfg.serverConfig())}
}

// serverConfig translates the root's configuration onto the round
// engine's: shards are the engine's peers, so the shard floor and
// deadline are its MinClients and RoundDeadline, and the hierarchy's
// hooks are the engine's under their peer-neutral names. The engine
// applies the defaults (Rounds, Codec, scale bits, Clock) and resolves
// MinShards 0 to the enrolled edge count when the session opens.
func (cfg RootConfig) serverConfig() fl.ServerConfig {
	return fl.ServerConfig{
		EdgePeers:       true,
		Rounds:          cfg.Rounds,
		MinClients:      cfg.MinShards,
		RoundDeadline:   cfg.ShardDeadline,
		Codec:           cfg.Codec,
		SecAgg:          cfg.SecAgg,
		SecAggScaleBits: cfg.SecAggScaleBits,
		MaskDegree:      cfg.MaskDegree,
		MinRelease:      cfg.MinRelease,
		IOTimeout:       cfg.IOTimeout,
		Clock:           cfg.Clock,
		Journal:         cfg.Journal,
		Metrics:         cfg.Metrics,
		Spans:           cfg.Spans,
		Hooks: fl.Hooks{
			RoundStarted:      cfg.Hooks.RoundStarted,
			UpdateFolded:      cfg.Hooks.PartialFolded,
			ClientQuarantined: cfg.Hooks.ShardDropped,
			RoundClosed:       cfg.Hooks.RoundClosed,
		},
	}
}

// State returns the current global model parameters.
func (r *Root) State() []*tensor.Tensor { return r.srv.State() }

// Trace returns a copy of the per-round statistics for the session so
// far, in round order. Sampled/Responded/Dropped/… are fleet-wide
// sums over the shard accounting carried by each PartialUp; Shards
// counts the partials folded. Safe to call from any goroutine while
// the session is running.
func (r *Root) Trace() []fl.RoundStats { return r.srv.Trace() }

// Run enrols the given edge connections and executes RootConfig.Rounds
// hierarchical FL cycles — fl.Server.Run over edge peers — then closes
// the edges with a Done carrying the final model. It returns the number
// of enrolled edges. A root whose engine fl.Recover rebuilt starts at
// the first uncommitted round instead of round 0.
func (r *Root) Run(edges []fl.Conn) (int, error) {
	n, err := r.srv.Run(edges)
	return n, shardErr(err)
}

// shardErr names the engine's peer floor in the hierarchy's terms: too
// few peers here means too few shards.
func shardErr(err error) error {
	if errors.Is(err, fl.ErrNotEnoughClients) {
		return fmt.Errorf("%w: %w", ErrNotEnoughShards, err)
	}
	return err
}
