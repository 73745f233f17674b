package core

import (
	"fmt"

	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
	"github.com/gradsec/gradsec/internal/wire"
)

// Planner adapts a GradSec plan to the FL server's RoundPlanner: layer
// indices expand to flat parameter indices and the plan itself travels to
// clients as an encoded blob.
type Planner struct {
	Plan      *Plan
	NumLayers int
	// Flat maps layers to flat indices; built by NewPlanner.
	flat func(layers []int) map[int]bool
}

// NewPlanner builds a planner for the given network structure.
func NewPlanner(plan *Plan, netLike interface{ NumLayers() int }, flatten func(layers []int) map[int]bool) *Planner {
	return &Planner{Plan: plan, NumLayers: netLike.NumLayers(), flat: flatten}
}

// PlanRound implements fl.RoundPlanner.
func (p *Planner) PlanRound(round int) (map[int]bool, []byte) {
	layers := p.Plan.ProtectedLayers(round, p.NumLayers)
	return p.flat(layers), p.Plan.Encode()
}

// GradSecClient implements fl.Trainer on top of a SecureTrainer: the
// device side of the paper's Figure 2 workflow.
type GradSecClient struct {
	trainer *SecureTrainer
	id      string
}

// NewGradSecClient wraps a secure trainer as an FL client trainer.
func NewGradSecClient(id string, trainer *SecureTrainer) *GradSecClient {
	return &GradSecClient{trainer: trainer, id: id}
}

// DeviceID implements fl.Trainer.
func (c *GradSecClient) DeviceID() string { return c.id }

// HasTEE implements fl.Trainer.
func (c *GradSecClient) HasTEE() bool { return true }

// Attest implements fl.Trainer.
func (c *GradSecClient) Attest(nonce []byte) (tz.Quote, error) {
	return c.trainer.Device().Attest(c.trainer.TAUUID(), nonce)
}

// OpenChannel implements fl.Trainer.
func (c *GradSecClient) OpenChannel(serverPub []byte) ([]byte, error) {
	return c.trainer.OpenServerChannel(serverPub)
}

// TrainRound implements fl.Trainer: install the distributed weights
// (plain ones directly, protected ones through the TA), run one secure
// cycle, and return the split update.
func (c *GradSecClient) TrainRound(round int, plain []*tensor.Tensor, sealed []byte, planBlob []byte) ([]*tensor.Tensor, []byte, error) {
	// Install plain weights into the normal-world view.
	flat := c.trainer.net.FlatParams()
	if len(plain) != len(flat) {
		return nil, nil, fmt.Errorf("core: server sent %d tensors, model has %d", len(plain), len(flat))
	}
	for i, p := range plain {
		if p == nil {
			continue
		}
		if !p.SameShape(flat[i]) {
			return nil, nil, fmt.Errorf("core: distributed tensor %d shape %v, want %v", i, p.Shape, flat[i].Shape)
		}
		copy(flat[i].Data, p.Data)
	}
	// Adopt the server's plan for this round. No plan means nothing is
	// protected: the placeholder plan the trainer was built with must not
	// shield layers the server never asked for (it would pay TEE cost for
	// them, and send a sealed half no masked round accepts).
	var plan *Plan
	if len(planBlob) > 0 {
		var err error
		if plan, err = DecodePlan(planBlob); err != nil {
			return nil, nil, fmt.Errorf("core: decoding plan: %w", err)
		}
		if err := plan.Validate(c.trainer.net.NumLayers()); err != nil {
			return nil, nil, fmt.Errorf("core: validating plan: %w", err)
		}
	}
	c.trainer.plan = plan
	// Load protected weights into the TA first; RunCycle's beginCycle
	// must then treat those layers' TA copies as authoritative.
	if len(sealed) > 0 {
		if err := c.trainer.LoadSealedWeights(sealed); err != nil {
			return nil, nil, err
		}
		for l, r := range flatRanges(c.trainer.net) {
			if r.start < r.end && plain[r.start] == nil {
				c.trainer.taAuthoritative[l] = true
			}
		}
	}
	res, err := c.trainer.RunCycle(round)
	if err != nil {
		return nil, nil, err
	}
	return res.Observable, res.SealedUpdate, nil
}

// LastResultHook exposes per-cycle results for observation in examples
// and tests (not part of the fl.Trainer contract).
func (c *GradSecClient) Trainer() *SecureTrainer { return c.trainer }

// ServerView stands in for the trusted FL server in standalone (non
// networked) experiments: it owns the server end of the trusted I/O path
// and can unseal protected updates — exactly what the client-side
// attacker cannot do.
type ServerView struct {
	channel *tz.Channel
}

// EstablishServerView creates the server end of the TIOP and connects the
// trainer's TA to it.
func EstablishServerView(t *SecureTrainer) (*ServerView, error) {
	offer, err := tz.NewChannelOffer()
	if err != nil {
		return nil, err
	}
	taPub, err := t.OpenServerChannel(offer.Public)
	if err != nil {
		return nil, err
	}
	ch, err := offer.Establish(taPub, true)
	if err != nil {
		return nil, err
	}
	return &ServerView{channel: ch}, nil
}

// UnsealUpdate recovers the protected updates from a cycle result,
// returning flat-index/tensor pairs.
func (v *ServerView) UnsealUpdate(sealed []byte) (map[int]*tensor.Tensor, error) {
	if len(sealed) == 0 {
		return nil, nil
	}
	blob, err := v.channel.Open(sealed)
	if err != nil {
		return nil, err
	}
	idx, ts, err := wire.DecodeSealedUpdate(blob)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*tensor.Tensor, len(idx))
	for i, id := range idx {
		out[id] = ts[i]
	}
	return out, nil
}

// FullUpdate merges a cycle's observable updates with the unsealed
// protected ones into the complete flat update (the server's view).
func (v *ServerView) FullUpdate(res *CycleResult) ([]*tensor.Tensor, error) {
	sealedParts, err := v.UnsealUpdate(res.SealedUpdate)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(res.Observable))
	copy(out, res.Observable)
	for id, t := range sealedParts {
		if id < 0 || id >= len(out) {
			return nil, fmt.Errorf("core: sealed index %d out of range", id)
		}
		out[id] = t
	}
	return out, nil
}
