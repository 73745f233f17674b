package core

import (
	"fmt"
	"time"

	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/simclock"
)

// LayerMACs returns the multiply-accumulate count of one forward pass of
// the layer for a single sample: the cost driver of the overhead model.
func LayerMACs(l nn.Layer) int64 {
	switch t := l.(type) {
	case *nn.Conv2D:
		oh, ow := t.ConvOutHW()
		return int64(oh) * int64(ow) * int64(t.Filters) * int64(t.InC) * int64(t.KH) * int64(t.KW)
	case *nn.Dense:
		return int64(t.In) * int64(t.Out)
	default:
		panic(fmt.Sprintf("core: unknown layer type %T", l))
	}
}

// costTable is the one declaration of the paper's Table 6 cost model
// (docs/COSTMODEL.md lists the row each term reproduces). The executors
// charge these terms to the device clock as they run; OverheadSim.CycleCost
// sums the same terms over the same segments, as whole multiples of the
// same per-iteration durations — so the live clock and the analytic model
// agree to the nanosecond, not within a tolerance.
type costTable struct{ simclock.CostModel }

// World switches, in SMCs. tz.Device charges each one as it happens;
// CycleCost charges switchCount of them.
const (
	smcPerInvoke   = 2 // a TA invocation enters the secure world and returns
	cycleInvokes   = 2 // beginCycle and endCycle, once per cycle
	segmentInvokes = 2 // forwardRun and backwardRun, per secure segment per iteration
)

// switchCount is the number of world switches in one cycle.
func switchCount(secureSegments, iterations int) int {
	return smcPerInvoke * (cycleInvokes + segmentInvokes*secureSegments*iterations)
}

// switches prices n world switches (secure-monitor time is kernel time).
func (c costTable) switches(n int) simclock.Breakdown {
	return simclock.Breakdown{Kernel: time.Duration(n) * c.WorldSwitch}
}

// cycleFixed is the per-cycle residual outside the layers: Table 6's
// baseline row less its per-layer compute.
func (c costTable) cycleFixed() simclock.Breakdown {
	return simclock.Breakdown{User: c.CycleUserOverhead, Kernel: c.CycleKernelOverhead}
}

// forward is one iteration's forward pass of one layer.
func (c costTable) forward(l nn.Layer, batch int, secure bool) simclock.Breakdown {
	return c.compute(c.LayerCompute(LayerMACs(l)*int64(batch), false), secure)
}

// backward is one iteration's backward pass and SGD step of one layer:
// what BackwardFactor adds on top of the forward pass.
func (c costTable) backward(l nn.Layer, batch int, secure bool) simclock.Breakdown {
	macs := LayerMACs(l) * int64(batch)
	return c.compute(c.LayerCompute(macs, true)-c.LayerCompute(macs, false), secure)
}

// compute books normal-world compute time d in the world that runs it:
// user time as is, kernel time slowed by SecureFactor.
func (c costTable) compute(d time.Duration, secure bool) simclock.Breakdown {
	if secure {
		return simclock.Breakdown{Kernel: c.SecureCompute(d)}
	}
	return simclock.Breakdown{User: d}
}

// provision is Table 6's allocation column: one protected layer's weights
// crossing the trusted I/O path into enclave memory. It is paid every
// cycle — each FL cycle starts from freshly distributed weights — not only
// when a layer first enters the enclave.
func (c costTable) provision(l nn.Layer) simclock.Breakdown {
	return simclock.Breakdown{Alloc: c.AllocTime(l.ParamCount())}
}

// charge advances the device clock by one cost-table term. Nothing else
// in this package touches the clock.
func charge(clock *simclock.Clock, b simclock.Breakdown) {
	clock.ChargeUser(b.User)
	clock.ChargeKernel(b.Kernel)
	clock.ChargeAlloc(b.Alloc)
}

// TEEMemoryBytes returns the secure-memory footprint of protecting one
// layer: weights and their gradients (2·P) plus the per-sample buffers
// the paper's Figure 3 places in the enclave — the input A_{l−1}, the
// pre-activation Z_l and the error δ_l (docs/COSTMODEL.md; reproduces the
// paper's per-layer megabytes within ≈10%).
func TEEMemoryBytes(l nn.Layer, batch, bytesPerCell int) int {
	return bytesPerCell * (2*l.ParamCount() + batch*(l.InCells()+2*l.OutCells()))
}

// OverheadSim reproduces the paper's Table 6 accounting analytically from
// layer metadata — deterministic and machine-independent — by summing the
// cost table the live SecureTrainer charges (docs/COSTMODEL.md).
type OverheadSim struct {
	// Net supplies layer geometry (weights are not touched).
	Net *nn.Network
	// Cost is the device cost model.
	Cost simclock.CostModel
	// Batch is the training batch size (the paper uses 32).
	Batch int
	// Iterations is the number of local batch iterations per FL cycle
	// (10 in the calibration fit).
	Iterations int
}

// NewOverheadSim returns a simulator with the paper's defaults: Pi-3B+
// cost model, batch 32, 10 iterations per cycle.
func NewOverheadSim(net *nn.Network) *OverheadSim {
	return &OverheadSim{Net: net, Cost: simclock.Pi3B(), Batch: 32, Iterations: 10}
}

// CycleCost returns the simulated one-cycle training-time breakdown for
// the given protected layer set (empty set = baseline). It equals, to the
// nanosecond, the CycleResult.Cost of a SecureTrainer cycle protecting the
// same layers at the same batch size and iteration count.
func (s *OverheadSim) CycleCost(protected []int) simclock.Breakdown {
	table := costTable{s.Cost}
	cycle := table.cycleFixed()
	var iter simclock.Breakdown // one iteration's compute over every layer
	secure := 0
	for _, seg := range segments(s.Net.NumLayers(), protected) {
		if seg.secure {
			secure++
		}
		for l := seg.first; l <= seg.last; l++ {
			layer := s.Net.Layers[l]
			iter = iter.Add(table.forward(layer, s.Batch, seg.secure)).Add(table.backward(layer, s.Batch, seg.secure))
			if seg.secure {
				cycle = cycle.Add(table.provision(layer))
			}
		}
	}
	cycle = cycle.Add(table.switches(switchCount(secure, s.Iterations)))
	n := time.Duration(s.Iterations)
	return cycle.Add(simclock.Breakdown{User: n * iter.User, Kernel: n * iter.Kernel, Alloc: n * iter.Alloc})
}

// TEEMemory returns the peak secure-memory bytes of the configuration.
func (s *OverheadSim) TEEMemory(protected []int) int {
	total := 0
	for _, l := range protected {
		total += TEEMemoryBytes(s.Net.Layers[l], s.Batch, s.Cost.BytesPerCell)
	}
	return total
}

// DynamicResult summarises a dynamic plan's simulated overhead the way
// Table 6 reports it.
type DynamicResult struct {
	// PerPosition holds the cycle cost of each window position.
	PerPosition []simclock.Breakdown
	// Average is the VMW-weighted average cycle cost.
	Average simclock.Breakdown
	// MaxMemory is the worst-case secure-memory footprint across
	// positions (the paper's reported "TEE Memory Usage").
	MaxMemory int
	// AvgMemory is the VMW-weighted expected footprint (the paper's
	// parenthetical "AVG=…" value).
	AvgMemory float64
}

// Dynamic simulates every window position of a dynamic plan and the
// VMW-weighted averages.
func (s *OverheadSim) Dynamic(plan *Plan) (DynamicResult, error) {
	n := s.Net.NumLayers()
	if err := plan.Validate(n); err != nil {
		return DynamicResult{}, err
	}
	if plan.Mode != ModeDynamic {
		return DynamicResult{}, fmt.Errorf("core: Dynamic called on %s plan", plan.Mode)
	}
	var res DynamicResult
	for pos, share := range plan.VMW {
		layers := make([]int, plan.SizeMW)
		for i := range layers {
			layers[i] = pos + i
		}
		cost := s.CycleCost(layers)
		mem := s.TEEMemory(layers)
		res.PerPosition = append(res.PerPosition, cost)
		res.Average = res.Average.Add(cost.Scale(share))
		res.AvgMemory += share * float64(mem)
		if mem > res.MaxMemory {
			res.MaxMemory = mem
		}
	}
	return res, nil
}
