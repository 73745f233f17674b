// Package core implements GradSec, the paper's contribution: selective
// TEE protection of neural-network layers during federated-learning local
// training.
//
// A Plan describes which layers are shielded. Static plans fix an
// arbitrary — possibly non-successive — layer set for all FL cycles (the
// key capability DarkneTZ lacks; §7.1). Dynamic plans slide a moving
// window of sizeMW successive layers across the model over cycles,
// following the probability distribution VMW (§7.2). The DarkneTZ
// baseline is a static plan constrained to one contiguous slice.
//
// The SecureTrainer executes local training with the protected layers'
// weights, activations, pre-activations, deltas and gradients confined to
// the TrustZone simulator's secure world, closing both gradient-leakage
// flaws of §6. The OverheadSim reproduces the paper's cost accounting
// (Table 6) analytically, from the one cost table the trainer charges as
// it runs (docs/COSTMODEL.md).
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/gradsec/gradsec/internal/wire"
)

// Mode selects between GradSec's two execution modes.
type Mode int

// Plan modes. ModeDarkneTZ marks the baseline: semantically a static plan
// whose layer set must be contiguous.
const (
	ModeStatic Mode = iota + 1
	ModeDynamic
	ModeDarkneTZ
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	case ModeDarkneTZ:
		return "darknetz"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Plan validation errors.
var (
	ErrEmptyPlan      = errors.New("core: plan protects no layers")
	ErrLayerRange     = errors.New("core: protected layer out of range")
	ErrNotContiguous  = errors.New("core: DarkneTZ requires successive layers")
	ErrBadVMW         = errors.New("core: VMW must be non-negative and sum to 1")
	ErrBadWindowSize  = errors.New("core: invalid moving-window size")
	ErrVMWLength      = errors.New("core: VMW length must be numLayers-sizeMW+1")
	ErrDuplicateLayer = errors.New("core: duplicate protected layer")
	ErrLayerOrder     = errors.New("core: protected layers must ascend")
)

// Plan describes a protection schedule over 0-based layer indices.
type Plan struct {
	Mode Mode

	// Layers is the protected set for static/DarkneTZ plans, sorted.
	Layers []int

	// SizeMW and VMW configure dynamic plans. VMW[k] is the fraction of
	// FL cycles the moving window spends at position k (protecting layers
	// k..k+SizeMW-1); its length must be numLayers−SizeMW+1.
	SizeMW int
	VMW    []float64
}

// NewStaticPlan protects an arbitrary set of layers for every cycle —
// non-successive sets are explicitly allowed (GradSec's key capability).
func NewStaticPlan(layers ...int) (*Plan, error) {
	set := append([]int(nil), layers...)
	sort.Ints(set)
	return validated(&Plan{Mode: ModeStatic, Layers: set})
}

// NewDarkneTZPlan builds the baseline plan protecting the contiguous
// slice [first, last] (inclusive). It fails if the slice is empty.
func NewDarkneTZPlan(first, last int) (*Plan, error) {
	var layers []int
	for l := first; l <= last; l++ {
		layers = append(layers, l)
	}
	return validated(&Plan{Mode: ModeDarkneTZ, Layers: layers})
}

// NewDynamicPlan builds a moving-window plan. VMW must be a probability
// vector; its length fixes the number of window positions and therefore
// implies the model's layer count (len(VMW)+sizeMW−1).
func NewDynamicPlan(sizeMW int, vmw []float64) (*Plan, error) {
	return validated(&Plan{Mode: ModeDynamic, SizeMW: sizeMW, VMW: append([]float64(nil), vmw...)})
}

// validated checks a freshly constructed plan against the smallest model
// it fits, so constructors and decoded plans pass the same Validate.
func validated(p *Plan) (*Plan, error) {
	n := len(p.VMW) + p.SizeMW - 1
	if p.Mode != ModeDynamic && len(p.Layers) > 0 {
		n = p.Layers[len(p.Layers)-1] + 1
	}
	if err := p.Validate(n); err != nil {
		return nil, err
	}
	return p, nil
}

// UniformDynamicPlan is the paper's "round-robin" configuration: a moving
// window visiting all positions of a numLayers-layer model equally often.
func UniformDynamicPlan(sizeMW, numLayers int) (*Plan, error) {
	n := WindowPositions(numLayers, sizeMW)
	if n < 1 {
		return nil, fmt.Errorf("%w: size %d in %d layers", ErrBadWindowSize, sizeMW, numLayers)
	}
	vmw := make([]float64, n)
	for i := range vmw {
		vmw[i] = 1 / float64(n)
	}
	return NewDynamicPlan(sizeMW, vmw)
}

// WindowPositions returns the number of possible moving-window locations:
// numLayers − sizeMW + 1 (§7.2).
func WindowPositions(numLayers, sizeMW int) int { return numLayers - sizeMW + 1 }

// Validate checks the plan against a concrete model size. It is the only
// plan check there is: the constructors call it, and so must whoever
// decodes a plan off the wire, before anything indexes by it. A nil plan
// — no protection at all — is valid for any model.
func (p *Plan) Validate(numLayers int) error {
	if p == nil {
		return nil
	}
	switch p.Mode {
	case ModeStatic, ModeDarkneTZ:
		if len(p.Layers) == 0 {
			return ErrEmptyPlan
		}
		for i, l := range p.Layers {
			if l < 0 || l >= numLayers {
				return fmt.Errorf("%w: %d of %d", ErrLayerRange, l, numLayers)
			}
			if i == 0 {
				continue
			}
			switch prev := p.Layers[i-1]; {
			case l == prev:
				return fmt.Errorf("%w: %d", ErrDuplicateLayer, l)
			case l < prev:
				return fmt.Errorf("%w: %v", ErrLayerOrder, p.Layers)
			case p.Mode == ModeDarkneTZ && l != prev+1:
				return fmt.Errorf("%w: %v", ErrNotContiguous, p.Layers)
			}
		}
		return nil
	case ModeDynamic:
		if p.SizeMW < 1 || p.SizeMW > numLayers {
			return fmt.Errorf("%w: %d of %d layers", ErrBadWindowSize, p.SizeMW, numLayers)
		}
		if len(p.VMW) != WindowPositions(numLayers, p.SizeMW) {
			return fmt.Errorf("%w: got %d, want %d", ErrVMWLength, len(p.VMW), WindowPositions(numLayers, p.SizeMW))
		}
		// WindowPosition indexes by the largest VMW deficit: a NaN or an
		// all-negative vector leaves it without one.
		sum := 0.0
		for _, share := range p.VMW {
			if share < 0 || math.IsNaN(share) {
				return fmt.Errorf("%w: entry %v", ErrBadVMW, share)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("%w: sum %v", ErrBadVMW, sum)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown plan mode %d", int(p.Mode))
	}
}

// ProtectedLayers returns the 0-based layers shielded during the given
// cycle. Dynamic plans use a deterministic largest-remainder schedule:
// over any horizon of C cycles, position k is used ≈VMW[k]·C times, with
// positions interleaved as evenly as possible (the paper fixes the
// distribution statically; determinism makes runs reproducible). A nil
// plan shields nothing.
func (p *Plan) ProtectedLayers(cycle, numLayers int) []int {
	if p == nil {
		return nil
	}
	switch p.Mode {
	case ModeStatic, ModeDarkneTZ:
		return append([]int(nil), p.Layers...)
	case ModeDynamic:
		pos := p.WindowPosition(cycle)
		out := make([]int, p.SizeMW)
		for i := range out {
			out[i] = pos + i
		}
		return out
	default:
		return nil
	}
}

// WindowPosition returns the moving-window position used at the given
// cycle (dynamic plans only).
func (p *Plan) WindowPosition(cycle int) int {
	if p.Mode != ModeDynamic {
		return -1
	}
	// Largest-remainder (Bresenham-style) sequencing: at each cycle pick
	// the position with the greatest deficit VMW[k]·(t+1) − used[k].
	used := make([]int, len(p.VMW))
	pos := 0
	for t := 0; t <= cycle; t++ {
		best, bestDeficit := -1, math.Inf(-1)
		for k, share := range p.VMW {
			deficit := share*float64(t+1) - float64(used[k])
			if deficit > bestDeficit+1e-12 {
				best, bestDeficit = k, deficit
			}
		}
		pos = best
		used[best]++
	}
	return pos
}

// Encode serialises the plan to the opaque blob carried by the FL
// protocol's ModelDown message.
func (p *Plan) Encode() []byte { return wire.Encode(wire.CodecF64, p.walk) }

// DecodePlan reconstructs a plan encoded with Encode.
func DecodePlan(blob []byte) (*Plan, error) {
	p := &Plan{}
	if err := wire.Decode(blob, wire.CodecF64, p.walk); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) walk(f *wire.Fields) {
	f.Int((*int)(&p.Mode))
	wire.List(f, &p.Layers, (*wire.Fields).Int)
	f.Int(&p.SizeMW)
	wire.List(f, &p.VMW, (*wire.Fields).Float64)
}

// String renders the plan using the paper's 1-based layer naming.
func (p *Plan) String() string {
	switch p.Mode {
	case ModeStatic, ModeDarkneTZ:
		s := p.Mode.String() + "["
		for i, l := range p.Layers {
			if i > 0 {
				s += "+"
			}
			s += fmt.Sprintf("L%d", l+1)
		}
		return s + "]"
	case ModeDynamic:
		return fmt.Sprintf("dynamic[MW=%d VMW=%v]", p.SizeMW, p.VMW)
	default:
		return "invalid-plan"
	}
}
