package core

import (
	"errors"
	"fmt"

	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
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

// Tensors implements tz.TensorCarrier: the device screens the activation.
func (r *forwardResp) Tensors() []*tensor.Tensor { return []*tensor.Tensor{r.activation} }

type backwardReq struct {
	first, last int
	gradOut     *tensor.Tensor // nil when the run owns the loss head
}

// gradsecTA is the trusted application: it owns the authoritative weights
// of protected layers and performs every computation that touches them.
//
// Its executor's workspace holds protected activations and δ between
// invocations. While a layer is protected its workspace buffers are on the
// secure registry beside its weights — the temporaries all layers share for
// the whole session — so the device refuses a response that carries one
// instead of a clone; when the layer leaves the enclave they are zeroed in
// place.
type gradsecTA struct {
	uuid    tz.UUID
	version string
	exec    *executor // the secure world's half of the training pass, over a private clone of the model

	regions map[int]*tz.Region // enclave memory of each protected layer
	channel *tz.Channel
}

// newGradsecTA returns the TA over net, which becomes its private model.
func newGradsecTA(net *nn.Network, lr float64) *gradsecTA {
	return &gradsecTA{uuid: tz.NameUUID("gradsec"), version: "1.0.0", exec: newExecutor(net, lr, true)}
}

// protect allocates layer l's enclave region and puts its weights and
// workspace buffers on the secure registry.
func (g *gradsecTA) protect(env *tz.TAEnv, l, batch int) error {
	layer := g.exec.net.Layers[l]
	reg, err := env.Mem.Alloc(fmt.Sprintf("gradsec/L%d", l+1), TEEMemoryBytes(layer, batch, env.Cost.BytesPerCell))
	if err != nil {
		return err
	}
	g.regions[l] = reg
	for _, p := range layer.Params() {
		env.Mem.RegisterTensor(p, fmt.Sprintf("gradsec/L%d/params", l+1))
	}
	for _, b := range g.exec.ws.Buffers(l) {
		env.Mem.RegisterTensor(b, fmt.Sprintf("gradsec/L%d/scratch", l+1))
	}
	return nil
}

// release frees layer l's region, scrubs its workspace buffers (and the
// shared temporaries, which may hold its δ) and takes them and the weights
// — which the caller declassifies or abandons — off the registry.
func (g *gradsecTA) release(env *tz.TAEnv, l int) error {
	if err := env.Mem.Free(g.regions[l]); err != nil {
		return err
	}
	delete(g.regions, l)
	for _, p := range g.exec.net.Layers[l].Params() {
		env.Mem.UnregisterTensor(p)
	}
	g.exec.ws.Scrub(l)
	for _, b := range g.exec.ws.Buffers(l) {
		env.Mem.UnregisterTensor(b)
	}
	return nil
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
	for _, b := range g.exec.ws.Temps() {
		env.Mem.RegisterTensor(b, "gradsec/scratch")
	}
	return g, nil
}

// CloseSession implements tz.TrustedApp.
func (g *gradsecTA) CloseSession(env *tz.TAEnv, state any) {
	for l := range g.regions {
		_ = g.release(env, l) // a region in the map is live: Free cannot fail
	}
	for _, b := range g.exec.ws.Temps() {
		env.Mem.UnregisterTensor(b)
	}
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
			if err := g.release(env, l); err != nil {
				return nil, err
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
		if err := g.protect(env, l, r.batch); err != nil {
			return nil, err
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
		// declassified as a fresh tensor. out itself is a registered
		// workspace buffer the device would refuse.
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
	// deliberately declassified; gradIn itself is a registered buffer.
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
