package core

import (
	"errors"
	"fmt"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// Request/response types crossing the world boundary. Inputs may carry
// normal-world tensors; responses are screened by the device against the
// secure registry. beginCycle answers with the declassified weights of the
// layers leaving the TEE ([]layerWeights), backwardRun with the
// declassified δ into the preceding layer (*tensor.Tensor, nil when the
// run starts at layer 0), endCycle with the sealed protected update.

type layerWeights struct {
	layer  int
	params []*tensor.Tensor
}

type beginCycleReq struct {
	protected []int
	batch     int
	incoming  []layerWeights // weights of the layers entering the TEE
}

type forwardReq struct {
	first, last int
	input       *tensor.Tensor
	labels      *tensor.Tensor // set when the run ends at the final layer
}

type forwardResp struct {
	activation *tensor.Tensor // declassified A_last (nil when loss head ran)
	loss       float64
}

type backwardReq struct {
	first, last int
	gradOut     *tensor.Tensor // nil when the run owns the loss head
}

// gradsecTA is the trusted application: it owns the authoritative weights
// of protected layers and performs every computation that touches them.
type gradsecTA struct {
	uuid    tz.UUID
	version string
	exec    *executor // the secure world's half of the training pass, over a private clone of the model

	regions map[int]*tz.Region // enclave memory of each protected layer
	channel *tz.Channel
}

// UUID implements tz.TrustedApp.
func (g *gradsecTA) UUID() tz.UUID { return g.uuid }

// Version implements tz.TrustedApp.
func (g *gradsecTA) Version() string { return g.version }

// OpenSession implements tz.TrustedApp.
func (g *gradsecTA) OpenSession(env *tz.TAEnv) (any, error) {
	g.exec.cost, g.exec.clock = costTable{env.Cost}, env.Clock
	g.exec.begin(nil)
	g.regions = make(map[int]*tz.Region)
	return g, nil
}

// CloseSession implements tz.TrustedApp.
func (g *gradsecTA) CloseSession(env *tz.TAEnv, state any) {
	for _, r := range g.regions {
		_ = env.Mem.Free(r)
	}
	g.regions = make(map[int]*tz.Region)
}

// Invoke implements tz.TrustedApp.
func (g *gradsecTA) Invoke(env *tz.TAEnv, _ any, cmd uint32, req any) (any, error) {
	switch cmd {
	case cmdOpenChannel:
		return g.openChannel(req)
	case cmdLoadSealedWeights:
		return nil, g.loadSealedWeights(req)
	case cmdBeginCycle:
		return g.beginCycle(env, req)
	case cmdForwardRun:
		return g.forwardRun(req)
	case cmdBackwardRun:
		return g.backwardRun(req)
	case cmdEndCycle:
		return g.endCycle()
	default:
		return nil, fmt.Errorf("core: gradsec TA: unknown command %d", cmd)
	}
}

func (g *gradsecTA) openChannel(req any) ([]byte, error) {
	serverPub, ok := req.([]byte)
	if !ok {
		return nil, errors.New("core: openChannel expects the server public key")
	}
	offer, err := tz.NewChannelOffer()
	if err != nil {
		return nil, err
	}
	ch, err := offer.Establish(serverPub, false)
	if err != nil {
		return nil, err
	}
	g.channel = ch
	return offer.Public, nil
}

func (g *gradsecTA) loadSealedWeights(req any) error {
	sealed, ok := req.([]byte)
	if !ok {
		return errors.New("core: loadSealedWeights expects a sealed blob")
	}
	if g.channel == nil {
		return errors.New("core: no trusted channel established")
	}
	blob, err := g.channel.Open(sealed)
	if err != nil {
		return err
	}
	idx, ts, err := fl.ParseSealedUpdate(blob)
	if err != nil {
		return err
	}
	flat := g.exec.net.FlatParams()
	for j, i := range idx {
		if i < 0 || i >= len(flat) {
			return fmt.Errorf("core: flat index %d out of range", i)
		}
		if !flat[i].SameShape(ts[j]) {
			return fmt.Errorf("core: sealed weight %d shape %v, want %v", i, ts[j].Shape, flat[i].Shape)
		}
		copy(flat[i].Data, ts[j].Data)
	}
	return nil
}

func (g *gradsecTA) beginCycle(env *tz.TAEnv, req any) ([]layerWeights, error) {
	r, ok := req.(*beginCycleReq)
	if !ok {
		return nil, errors.New("core: beginCycle expects *beginCycleReq")
	}
	net := g.exec.net
	segs := segments(net.NumLayers(), r.protected)
	var released []layerWeights

	// Declassify layers leaving the enclave and free their regions.
	for _, seg := range segs {
		if seg.secure {
			continue
		}
		for l := seg.first; l <= seg.last; l++ {
			if !g.exec.protected[l] {
				continue
			}
			// Fresh tensors, never registered secure.
			released = append(released, layerWeights{layer: l, params: cloneParams(net.Layers[l])})
			if err := env.Mem.Free(g.regions[l]); err != nil {
				return nil, err
			}
			delete(g.regions, l)
			for _, p := range net.Layers[l].Params() {
				env.Mem.UnregisterTensor(p)
			}
		}
	}

	// Install weights for newly protected layers.
	for _, in := range r.incoming {
		ps := net.Layers[in.layer].Params()
		if len(in.params) != len(ps) {
			return nil, fmt.Errorf("core: layer %d: %d param tensors, want %d", in.layer, len(in.params), len(ps))
		}
		for j, p := range ps {
			if !p.SameShape(in.params[j]) {
				return nil, fmt.Errorf("core: layer %d param %d shape mismatch", in.layer, j)
			}
			copy(p.Data, in.params[j].Data)
		}
	}

	// Provision every protected layer through the trusted I/O path, and
	// allocate enclave regions for the newly protected ones.
	for _, l := range r.protected {
		layer := net.Layers[l]
		charge(g.exec.clock, g.exec.cost.provision(layer))
		if g.exec.protected[l] {
			continue
		}
		size := TEEMemoryBytes(layer, r.batch, env.Cost.BytesPerCell)
		reg, err := env.Mem.Alloc(fmt.Sprintf("gradsec/L%d", l+1), size)
		if err != nil {
			return nil, err
		}
		g.regions[l] = reg
		for _, p := range layer.Params() {
			env.Mem.RegisterTensor(p, fmt.Sprintf("gradsec/L%d/params", l+1))
		}
	}

	g.exec.begin(segs)
	return released, nil
}

func (g *gradsecTA) forwardRun(req any) (*forwardResp, error) {
	r, ok := req.(*forwardReq)
	if !ok {
		return nil, errors.New("core: forwardRun expects *forwardReq")
	}
	out, loss, err := g.exec.forward(r.first, r.last, r.input, r.labels)
	if err != nil {
		return nil, err
	}
	if out != nil {
		// A_last feeds the next (unprotected) layer: deliberately
		// declassified as a fresh tensor.
		out = out.Clone()
	}
	return &forwardResp{activation: out, loss: loss}, nil
}

func (g *gradsecTA) backwardRun(req any) (*tensor.Tensor, error) {
	r, ok := req.(*backwardReq)
	if !ok {
		return nil, errors.New("core: backwardRun expects *backwardReq")
	}
	gradIn, err := g.exec.backward(r.first, r.last, r.gradOut)
	if err != nil || r.first == 0 {
		return nil, err
	}
	// δ_{first-1} feeds the preceding unprotected layer's backward:
	// deliberately declassified.
	return gradIn.Clone(), nil
}

func (g *gradsecTA) endCycle() ([]byte, error) {
	var idx []int
	var ts []*tensor.Tensor
	g.exec.updates(func(flat int, update *tensor.Tensor) {
		idx, ts = append(idx, flat), append(ts, update)
	})
	if len(idx) == 0 {
		return nil, nil
	}
	if g.channel == nil {
		return nil, errors.New("core: protected updates require a trusted channel")
	}
	return g.channel.Seal(fl.SealedUpdate(idx, ts)), nil
}
