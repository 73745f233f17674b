package core

import (
	"errors"
	"fmt"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/simclock"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// GradSec TA commands.
const (
	cmdOpenChannel uint32 = iota + 1
	cmdLoadSealedWeights
	cmdBeginCycle
	cmdForwardRun
	cmdBackwardRun
	cmdEndCycle
)

// TrainerConfig parameterises secure local training.
type TrainerConfig struct {
	// Iterations is the number of batch iterations per FL cycle.
	Iterations int
	// LR is the local SGD learning rate.
	LR float64
	// Batch supplies the training batch for (cycle, iteration).
	Batch func(cycle, iter int) (x, y *tensor.Tensor)
}

// CycleResult is what one FL cycle of secure local training exposes.
type CycleResult struct {
	// Cycle is the FL cycle index.
	Cycle int
	// MeanLoss averages the per-iteration training loss.
	MeanLoss float64
	// Protected lists the layers that were shielded this cycle.
	Protected []int
	// Observable holds the model update (W_end − W_start) of every
	// *unprotected* parameter tensor, nil at protected positions — this
	// is exactly the attacker's view of the gradients.
	Observable []*tensor.Tensor
	// SealedUpdate carries the protected updates, sealed for the server
	// through the trusted I/O path. Opaque to the normal world.
	SealedUpdate []byte
	// Cost is the cycle's simulated time breakdown.
	Cost simclock.Breakdown
	// PeakTEEBytes is the secure-memory high-water mark of the cycle.
	PeakTEEBytes int
}

// SecureTrainer executes GradSec local training on one simulated device:
// unprotected layers run in the normal world, protected layers inside the
// gradsec trusted application.
type SecureTrainer struct {
	dev  *tz.Device
	net  *nn.Network // normal-world view; protected layer params are zeroed
	plan *Plan
	cfg  TrainerConfig

	ta   *gradsecTA
	sess *tz.Session

	exec *executor // the normal world's half of the training pass
	segs []segment // the current cycle's schedule
	// taAuthoritative marks layers whose current weights already live in
	// the TA (loaded sealed through the trusted I/O path), so beginCycle
	// must not overwrite them with the zeroed normal-world copies.
	taAuthoritative map[int]bool
}

// NewSecureTrainer installs the GradSec TA on the device and provisions
// it with a private clone of the model. The passed network remains the
// normal-world view.
func NewSecureTrainer(dev *tz.Device, net *nn.Network, plan *Plan, cfg TrainerConfig) (*SecureTrainer, error) {
	if err := plan.Validate(net.NumLayers()); err != nil {
		return nil, err
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	ta := newGradsecTA(net.Clone(), cfg.LR)
	if err := dev.Install(ta); err != nil {
		return nil, err
	}
	sess, err := dev.OpenSession(ta.UUID())
	if err != nil {
		return nil, err
	}
	exec := newExecutor(net, cfg.LR, false)
	exec.cost, exec.clock = costTable{dev.Cost()}, dev.Clock()
	exec.begin(nil) // nothing is protected before the first cycle
	return &SecureTrainer{
		dev: dev, net: net, plan: plan, cfg: cfg,
		ta: ta, sess: sess, exec: exec,
		taAuthoritative: make(map[int]bool),
	}, nil
}

// Device returns the underlying simulated device.
func (t *SecureTrainer) Device() *tz.Device { return t.dev }

// TAUUID returns the GradSec TA identity (for attestation policies).
func (t *SecureTrainer) TAUUID() tz.UUID { return t.ta.UUID() }

// Network returns the normal-world model view. Protected layers' weights
// are zeroed there; reading them reveals nothing.
func (t *SecureTrainer) Network() *nn.Network { return t.net }

// OpenServerChannel establishes the TA side of the trusted I/O path.
func (t *SecureTrainer) OpenServerChannel(serverPub []byte) ([]byte, error) {
	resp, err := t.sess.Invoke(cmdOpenChannel, serverPub)
	if err != nil {
		return nil, err
	}
	pub, ok := resp.([]byte)
	if !ok {
		return nil, fmt.Errorf("core: unexpected channel response %T", resp)
	}
	return pub, nil
}

// LoadSealedWeights hands server-sealed protected weights to the TA.
func (t *SecureTrainer) LoadSealedWeights(sealed []byte) error {
	_, err := t.sess.Invoke(cmdLoadSealedWeights, sealed)
	return err
}

// RunCycle executes one FL cycle: local training over cfg.Iterations
// batches with the cycle's protected layers confined to the TEE.
func (t *SecureTrainer) RunCycle(cycle int) (*CycleResult, error) {
	if t.cfg.Batch == nil {
		return nil, errors.New("core: TrainerConfig.Batch is required")
	}
	res := &CycleResult{Cycle: cycle, Protected: t.plan.ProtectedLayers(cycle, t.net.NumLayers())}
	clock := t.dev.Clock()
	before := clock.Snapshot()
	t.dev.SecureMemory().ResetPeak()
	// The enclave is sized by the batch, so iteration 0's batch is drawn
	// before the cycle opens — once: Batch may be a stateful sampler.
	x, y := t.cfg.Batch(cycle, 0)
	if err := t.beginCycle(res.Protected, x.Shape[0]); err != nil {
		return nil, err
	}
	charge(clock, t.exec.cost.cycleFixed())

	for iter := 0; iter < t.cfg.Iterations; iter++ {
		if iter > 0 {
			x, y = t.cfg.Batch(cycle, iter)
		}
		loss, err := t.trainStep(x, y)
		if err != nil {
			return nil, fmt.Errorf("core: cycle %d iter %d: %w", cycle, iter, err)
		}
		res.MeanLoss += loss
	}
	res.MeanLoss /= float64(t.cfg.Iterations)

	if err := t.endCycle(res); err != nil {
		return nil, err
	}
	after := clock.Snapshot()
	res.Cost = simclock.Breakdown{
		User:   after.User - before.User,
		Kernel: after.Kernel - before.Kernel,
		Alloc:  after.Alloc - before.Alloc,
	}
	res.PeakTEEBytes = t.dev.SecureMemory().Peak()
	return res, nil
}

// beginCycle reconfigures protection: the TA allocates enclave regions
// for newly protected layers and declassifies layers leaving the TEE.
func (t *SecureTrainer) beginCycle(protected []int, batch int) error {
	req := &beginCycleReq{protected: protected, batch: batch}
	// Hand weights of newly protected layers to the TA (they were public
	// until now), then zero the normal-world copies. Layers whose weights
	// already arrived sealed through the trusted I/O path are skipped —
	// the TA copy is authoritative.
	for _, l := range protected {
		if !t.exec.protected[l] && !t.taAuthoritative[l] {
			req.incoming = append(req.incoming, layerWeights{layer: l, params: cloneParams(t.net.Layers[l])})
		}
	}
	t.taAuthoritative = make(map[int]bool)
	resp, err := t.sess.Invoke(cmdBeginCycle, req)
	if err != nil {
		return err
	}
	released, ok := resp.([]layerWeights)
	if !ok {
		return fmt.Errorf("core: unexpected beginCycle response %T", resp)
	}
	// Install declassified weights of layers that left the enclave.
	for _, dw := range released {
		for j, p := range t.net.Layers[dw.layer].Params() {
			copy(p.Data, dw.params[j].Data)
		}
	}
	// Zero normal-world copies of protected layers.
	for _, l := range protected {
		for _, p := range t.net.Layers[l].Params() {
			p.Fill(0)
		}
	}
	t.segs = segments(t.net.NumLayers(), protected)
	t.exec.begin(t.segs)
	return nil
}

// trainStep performs one forward+backward+SGD iteration over the cycle's
// segments, crossing into the TA for each secure one. The world that runs
// the final segment also runs the loss head and keeps its δ.
func (t *SecureTrainer) trainStep(x, y *tensor.Tensor) (float64, error) {
	cur := x
	var loss float64
	for _, seg := range t.segs {
		var labels *tensor.Tensor
		if seg.last == t.net.NumLayers()-1 {
			labels = y
		}
		if !seg.secure {
			out, l, err := t.exec.forward(seg.first, seg.last, cur, labels)
			if err != nil {
				return 0, err
			}
			cur, loss = out, l
			continue
		}
		req := &forwardReq{first: seg.first, last: seg.last, input: cur.Clone()}
		if labels != nil {
			req.labels = labels.Clone()
		}
		resp, err := t.sess.Invoke(cmdForwardRun, req)
		if err != nil {
			return 0, err
		}
		out := resp.(*forwardResp)
		cur, loss = out.activation, out.loss
	}

	var gradOut *tensor.Tensor // nil into the final segment: its world holds the loss head's δ
	for i := len(t.segs) - 1; i >= 0; i-- {
		seg := t.segs[i]
		if !seg.secure {
			gradIn, err := t.exec.backward(seg.first, seg.last, gradOut)
			if err != nil {
				return 0, err
			}
			gradOut = gradIn
			continue
		}
		req := &backwardReq{first: seg.first, last: seg.last}
		if gradOut != nil {
			req.gradOut = gradOut.Clone()
		}
		resp, err := t.sess.Invoke(cmdBackwardRun, req)
		if err != nil {
			return 0, err
		}
		gradOut = resp.(*tensor.Tensor) // nil when the segment starts at layer 0
	}
	return loss, nil
}

// endCycle collects the observable updates and the sealed protected
// updates.
func (t *SecureTrainer) endCycle(res *CycleResult) error {
	res.Observable = make([]*tensor.Tensor, len(t.net.FlatParams()))
	t.exec.updates(func(flat int, update *tensor.Tensor) { res.Observable[flat] = update })
	resp, err := t.sess.Invoke(cmdEndCycle, nil)
	if err != nil {
		return err
	}
	sealed, ok := resp.([]byte)
	if !ok {
		return fmt.Errorf("core: unexpected endCycle response %T", resp)
	}
	res.SealedUpdate = sealed
	return nil
}

// flatRange maps a layer to its slice of the flat parameter list.
type flatRange struct{ start, end int }

func flatRanges(net *nn.Network) []flatRange {
	out := make([]flatRange, net.NumLayers())
	k := 0
	for i, layer := range net.Layers {
		n := len(layer.Params())
		out[i] = flatRange{start: k, end: k + n}
		k += n
	}
	return out
}

// FlatIndicesForLayers expands 0-based layer indices to flat parameter
// indices (the granularity of the FL protocol's protection sets).
func FlatIndicesForLayers(net *nn.Network, layers []int) map[int]bool {
	fr := flatRanges(net)
	out := make(map[int]bool)
	for _, l := range layers {
		for k := fr[l].start; k < fr[l].end; k++ {
			out[k] = true
		}
	}
	return out
}
