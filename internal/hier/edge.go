package hier

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/obs"
	"github.com/gradsec/gradsec/internal/secagg"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/wire"
)

// EdgeConfig configures one edge aggregator.
type EdgeConfig struct {
	// Name identifies the edge to the root (shard identity; the root
	// turns away duplicates).
	Name string
	// MaxCodec caps the upstream codec negotiation with the root. The
	// zero value pins the exact f64 model broadcast.
	MaxCodec wire.Codec
	// Server configures the shard's round engine — sampling, deadlines,
	// quarantine, codec offered to the shard's own clients, protection
	// planner. Partials is forced on; Rounds is ignored (the root paces
	// rounds); SecAgg and SecAggScaleBits are adopted from the root's
	// enrolment challenge so the whole hierarchy quantises identically.
	Server fl.ServerConfig
}

// Edge is one shard aggregator: downstream it is a complete FL server
// for its clients (selection, sampling, deadlines, quarantine, secagg
// masking with a shard-scoped roster); upstream it behaves like a
// client of the root, adopting each round's global model and answering
// with its shard's partial aggregate.
type Edge struct {
	cfg   EdgeConfig
	state []*tensor.Tensor
	srv   *fl.Server
	// journal, set by RecoverEdge, is the shard journal Run rebuilds the
	// engine from instead of building it fresh.
	journal string

	// mu guards upstream, aborted, and the srv pointer itself: Run
	// registers the upstream connection and builds the shard engine,
	// Abort and Health may run on any goroutine.
	mu       sync.Mutex
	upstream fl.Conn
	aborted  bool

	// snap cuts per-round telemetry deltas from the shard engine's
	// registry for the upstream piggyback (lazily built; nil when the
	// shard runs without metrics).
	snap *obs.Snapshotter

	// Selected is the number of shard clients that passed selection.
	Selected int
	// Rounds counts shard rounds stepped under root control.
	Rounds int
	// RejectedReason is set when the root refused this edge.
	RejectedReason string
}

// NewEdge creates an edge aggregator owning the given model-shaped
// state (values are overwritten by the root's broadcast each round).
func NewEdge(state []*tensor.Tensor, cfg EdgeConfig) *Edge {
	if cfg.Name == "" {
		cfg.Name = "edge"
	}
	return &Edge{cfg: cfg, state: state}
}

// Trace returns the shard engine's per-round statistics.
func (e *Edge) Trace() []fl.RoundStats {
	if e.srv == nil {
		return nil
	}
	return e.srv.Trace()
}

// Abort tears a running edge down from outside Run, e.g. a signal
// handler: the upstream connection closes, Run's receive loop surfaces
// the transport error and unwinds through its own deferred shard-engine
// teardown on the Run goroutine. Safe to call from any goroutine, at
// any time — calling it before Run makes Run return immediately.
func (e *Edge) Abort() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.aborted = true
	if e.upstream != nil {
		_ = e.upstream.Close()
	}
}

// Health summarises the shard engine for an admin /healthz probe.
// Safe to call from any goroutine; before the engine exists it reports
// a zero Health.
func (e *Edge) Health() obs.Health {
	e.mu.Lock()
	srv := e.srv
	e.mu.Unlock()
	if srv == nil {
		return obs.Health{}
	}
	return srv.Health()
}

// Run participates in a hierarchical session: enrol with the root over
// upstream, select the shard's clients, then serve rounds — adopt each
// ShardDown model, run the shard round, forward the partial — until
// the root sends Done (forwarded to the shard's clients) or Reject.
func (e *Edge) Run(upstream fl.Conn, clients []fl.Conn) error {
	defer upstream.Close()
	e.mu.Lock()
	e.upstream = upstream
	aborted := e.aborted
	e.mu.Unlock()
	if aborted {
		_ = upstream.Close()
		return errors.New("hier: edge aborted")
	}
	msg, err := upstream.Recv()
	if err != nil {
		return fmt.Errorf("hier: awaiting enrolment challenge: %w", err)
	}
	ch, ok := msg.(*fl.Challenge)
	if !ok {
		if rej, isRej := msg.(*fl.Reject); isRej {
			e.RejectedReason = rej.Reason
			return nil
		}
		return fmt.Errorf("hier: expected Challenge, got %T", msg)
	}
	codec := ch.Codec
	if codec > e.cfg.MaxCodec {
		codec = e.cfg.MaxCodec
	}
	if err := upstream.Send(&fl.Attest{DeviceID: e.cfg.Name, Codec: codec, Cap: e.cfg.MaxCodec}); err != nil {
		return fmt.Errorf("hier: enrolling: %w", err)
	}
	upstream.SetCodec(codec)

	// The shard engine adopts the hierarchy-wide aggregation mode from
	// the enrolment challenge and always runs in partial mode. A
	// recovered shard (RecoverEdge) replays its journal against exactly
	// this configuration, and Open then resumes its session.
	scfg := e.cfg.Server
	scfg.Partials = true
	scfg.SecAgg = ch.SecAgg
	if ch.SecAgg {
		scfg.SecAggScaleBits = int(ch.ScaleBits)
		scfg.MaskDegree = ch.MaskDegree
	}
	var srv *fl.Server
	if e.journal != "" {
		srv, err = fl.Recover(e.journal, e.state, scfg)
	} else {
		srv = fl.NewServer(e.state, scfg)
	}
	if err == nil {
		e.mu.Lock()
		e.srv = srv
		e.mu.Unlock()
		e.Selected, err = srv.Open(clients)
	}
	if err != nil {
		// The shard cannot serve: tell the root and leave — the root
		// degrades to the remaining shards.
		_ = upstream.Send(&fl.ErrorMsg{Text: fmt.Sprintf("opening shard failed: %v", err)})
		return fmt.Errorf("hier: opening shard: %w", err)
	}
	defer e.srv.Abort()

	for {
		msg, err := upstream.Recv()
		if err != nil {
			if err == io.EOF {
				return fmt.Errorf("hier: root closed mid-session: %w", err)
			}
			return fmt.Errorf("hier: receiving from root: %w", err)
		}
		switch m := msg.(type) {
		case *fl.Reject:
			e.RejectedReason = m.Reason
			return nil
		case *fl.Done:
			// Forward the fleet's final model to the shard's clients.
			return e.srv.Close(m.Final)
		case *fl.ShardDown:
			if err := e.serveRound(upstream, m); err != nil {
				return err
			}
		case *fl.ErrorMsg:
			return fmt.Errorf("hier: root error: %s", m.Text)
		default:
			return fmt.Errorf("hier: unexpected message %T from root", msg)
		}
	}
}

// serveRound adopts the round's global model, runs the shard round,
// and forwards the PartialUp StepRound returns — for a degraded shard
// round (too few responders, a failed reconciliation or release floor)
// the accounting-only one, and the shard stays enrolled: it may recover
// as clients come off probation. Any other failure ends the edge.
func (e *Edge) serveRound(upstream fl.Conn, m *fl.ShardDown) error {
	// Adopt the root-minted trace before the shard round starts so every
	// span this round emits — here and on this shard's clients — carries
	// the fleet-wide correlation ID.
	e.srv.SetRoundTrace(m.Trace)
	// The model's views are decoded into the edge's state and the frame
	// released before the shard round: a leased frame (TCP) goes back to
	// the conn, and a shared one (a pipe) is the root's to reuse once
	// this edge has answered.
	err := e.srv.SetState(m.Views)
	m.Release()
	if err != nil {
		_ = upstream.Send(&fl.ErrorMsg{Text: err.Error()})
		return fmt.Errorf("hier: adopting round %d model: %w", m.Round, err)
	}
	up, err := e.srv.StepRound(m.Round)
	e.Rounds++
	if err != nil && !errors.Is(err, fl.ErrNotEnoughClients) && !errors.Is(err, fl.ErrSecAggRecon) && !errors.Is(err, secagg.ErrCohortTooSmall) {
		_ = upstream.Send(&fl.ErrorMsg{Text: err.Error()})
		return fmt.Errorf("hier: shard round %d: %w", m.Round, err)
	}
	if up == nil {
		up = &fl.PartialUp{Round: m.Round} // the round failed before it opened
	}
	// Taken after the round so its own observations — a degraded round's
	// above all — ride the partial they describe.
	up.Telemetry = e.telemetryDelta()
	if err := upstream.Send(up); err != nil {
		return fmt.Errorf("hier: forwarding round %d partial: %w", m.Round, err)
	}
	return nil
}

// telemetryDelta cuts the shard registry's delta since the previous
// upstream send; nil when the shard runs without metrics or nothing
// changed. Taken after the round steps so the round's own observations
// ride the partial they describe.
func (e *Edge) telemetryDelta() []byte {
	if e.cfg.Server.Metrics == nil {
		return nil
	}
	if e.snap == nil {
		e.snap = obs.NewSnapshotter(e.cfg.Server.Metrics)
	}
	return e.snap.Delta()
}

// ShardState returns the edge's current model state (the last adopted
// global model); exposed for tests and tooling.
func (e *Edge) ShardState() []*tensor.Tensor { return e.state }
