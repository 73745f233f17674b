package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestStaticPlanNonSuccessive(t *testing.T) {
	p, err := NewStaticPlan(4, 1) // L2+L5 in paper naming
	if err != nil {
		t.Fatal(err)
	}
	if p.Layers[0] != 1 || p.Layers[1] != 4 {
		t.Fatalf("layers = %v", p.Layers)
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	got := p.ProtectedLayers(7, 5)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("ProtectedLayers = %v", got)
	}
}

func TestStaticPlanErrors(t *testing.T) {
	if _, err := NewStaticPlan(); !errors.Is(err, ErrEmptyPlan) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewStaticPlan(-1); !errors.Is(err, ErrLayerRange) {
		t.Fatalf("negative: %v", err)
	}
	if _, err := NewStaticPlan(2, 2); !errors.Is(err, ErrDuplicateLayer) {
		t.Fatalf("dup: %v", err)
	}
	p, _ := NewStaticPlan(7)
	if err := p.Validate(5); !errors.Is(err, ErrLayerRange) {
		t.Fatalf("range: %v", err)
	}
}

func TestDarkneTZPlanRequiresContiguous(t *testing.T) {
	p, err := NewDarkneTZPlan(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Layers) != 4 {
		t.Fatalf("layers = %v", p.Layers)
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	// Manually corrupt to non-contiguous: validation must reject.
	p.Layers = []int{1, 4}
	if err := p.Validate(5); !errors.Is(err, ErrNotContiguous) {
		t.Fatalf("non-contiguous: %v", err)
	}
	if _, err := NewDarkneTZPlan(3, 2); err == nil {
		t.Fatal("inverted range must fail")
	}
}

func TestDynamicPlanValidation(t *testing.T) {
	// Paper's DPIA configuration: MW=2 over 5 layers, 4 positions.
	p, err := NewDynamicPlan(2, []float64{0.2, 0.1, 0.6, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(6); !errors.Is(err, ErrVMWLength) {
		t.Fatalf("wrong layer count: %v", err)
	}
	if _, err := NewDynamicPlan(0, []float64{1}); !errors.Is(err, ErrBadWindowSize) {
		t.Fatalf("size 0: %v", err)
	}
	if _, err := NewDynamicPlan(2, []float64{0.5, 0.4}); !errors.Is(err, ErrBadVMW) {
		t.Fatalf("bad sum: %v", err)
	}
	if _, err := NewDynamicPlan(2, []float64{1.5, -0.5}); !errors.Is(err, ErrBadVMW) {
		t.Fatalf("negative: %v", err)
	}
}

func TestWindowPositions(t *testing.T) {
	// Paper §7.2: n − sizeMW + 1; Figure 4's example is 4 for MW=2 in a
	// 5-layer network.
	if got := WindowPositions(5, 2); got != 4 {
		t.Fatalf("positions = %d, want 4", got)
	}
	if got := WindowPositions(8, 3); got != 6 {
		t.Fatalf("positions = %d, want 6", got)
	}
}

func TestUniformDynamicPlan(t *testing.T) {
	p, err := UniformDynamicPlan(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.VMW {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("VMW = %v", p.VMW)
		}
	}
	if _, err := UniformDynamicPlan(6, 5); err == nil {
		t.Fatal("window larger than model must fail")
	}
}

// The deterministic schedule must realise the VMW distribution over any
// horizon: counts within 1 of the ideal share (largest-remainder bound).
func TestDynamicScheduleMatchesVMW(t *testing.T) {
	vmw := []float64{0.2, 0.1, 0.6, 0.1}
	p, err := NewDynamicPlan(2, vmw)
	if err != nil {
		t.Fatal(err)
	}
	const cycles = 40
	counts := make([]int, len(vmw))
	for c := 0; c < cycles; c++ {
		pos := p.WindowPosition(c)
		counts[pos]++
		layers := p.ProtectedLayers(c, 5)
		if len(layers) != 2 || layers[1] != layers[0]+1 {
			t.Fatalf("cycle %d: window layers = %v", c, layers)
		}
	}
	for k, share := range vmw {
		ideal := share * cycles
		if math.Abs(float64(counts[k])-ideal) > 1.0+1e-9 {
			t.Fatalf("position %d used %d times, ideal %.1f", k, counts[k], ideal)
		}
	}
}

// Property: for random VMW vectors the schedule stays within the
// largest-remainder bound of the ideal allocation.
func TestDynamicScheduleProportionalProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		w := []float64{float64(a%8) + 1, float64(b%8) + 1, float64(c%8) + 1}
		sum := w[0] + w[1] + w[2]
		for i := range w {
			w[i] /= sum
		}
		p, err := NewDynamicPlan(3, w)
		if err != nil {
			return false
		}
		const cycles = 30
		counts := make([]int, 3)
		for t := 0; t < cycles; t++ {
			counts[p.WindowPosition(t)]++
		}
		for k := range w {
			if math.Abs(float64(counts[k])-w[k]*cycles) > 1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanEncodeDecodeRoundTrip(t *testing.T) {
	plans := []*Plan{
		mustStatic(t, 1, 4),
		mustDarkneTZ(t, 1, 4),
		mustDynamic(t, 2, []float64{0.2, 0.1, 0.6, 0.1}),
	}
	for _, p := range plans {
		got, err := DecodePlan(p.Encode())
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got.String() != p.String() {
			t.Fatalf("roundtrip %s != %s", got, p)
		}
	}
	if _, err := DecodePlan([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("corrupt plan must fail")
	}
}

func TestPlanString(t *testing.T) {
	p := mustStatic(t, 1, 4)
	if p.String() != "static[L2+L5]" {
		t.Fatalf("String = %s", p.String())
	}
	d := mustDynamic(t, 2, []float64{0.5, 0.5})
	if d.String() == "" || d.Mode.String() != "dynamic" {
		t.Fatal("dynamic String broken")
	}
}

func mustStatic(t *testing.T, layers ...int) *Plan {
	t.Helper()
	p, err := NewStaticPlan(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustDarkneTZ(t *testing.T, first, last int) *Plan {
	t.Helper()
	p, err := NewDarkneTZPlan(first, last)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustDynamic(t *testing.T, size int, vmw []float64) *Plan {
	t.Helper()
	p, err := NewDynamicPlan(size, vmw)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustUniform(t *testing.T, size, numLayers int) *Plan {
	t.Helper()
	p, err := UniformDynamicPlan(size, numLayers)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// hostilePlans are blobs a server (or whoever sits on the wire) can send
// that the constructors would never build, with the error a five-layer
// device must answer.
var hostilePlans = []struct {
	name string
	plan Plan
	want error
}{
	{"NaN VMW", Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{math.NaN(), 0.5, 0.25, 0.25}}, ErrBadVMW},
	{"negative VMW", Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{-1, -1, -1, -1}}, ErrBadVMW},
	{"VMW sums to 2", Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{0.5, 0.5, 0.5, 0.5}}, ErrBadVMW},
	{"infinite VMW", Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{math.Inf(1), 0, 0, 0}}, ErrBadVMW},
	{"duplicate layers", Plan{Mode: ModeStatic, Layers: []int{1, 1, 4}}, ErrDuplicateLayer},
	{"unsorted layers", Plan{Mode: ModeStatic, Layers: []int{4, 1}}, ErrLayerOrder},
	{"darknetz gap", Plan{Mode: ModeDarkneTZ, Layers: []int{1, 2, 4}}, ErrNotContiguous},
}

// A decoded plan passes the same checks as a constructed one: before this
// held, a NaN VMW validated and ProtectedLayers indexed used[-1] on the
// device, and duplicate layers were priced twice by OverheadSim.TEEMemory.
func TestHostilePlanBlobRejected(t *testing.T) {
	for _, h := range hostilePlans {
		p, err := DecodePlan(h.plan.Encode())
		if err != nil {
			t.Fatalf("%s: decode: %v", h.name, err)
		}
		if err := p.Validate(5); !errors.Is(err, h.want) {
			t.Errorf("%s: Validate = %v, want %v", h.name, err, h.want)
		}
	}
}

// FuzzDecodePlan: whatever decodes and validates against an n-layer model
// yields, on every cycle of two window periods, a protected set that is in
// range, ascending and duplicate-free — and never panics on the way.
func FuzzDecodePlan(f *testing.F) {
	static, _ := NewStaticPlan(1, 4)
	darknetz, _ := NewDarkneTZPlan(1, 4)
	dynamic, _ := NewDynamicPlan(2, []float64{0.2, 0.1, 0.6, 0.1})
	uniform, _ := UniformDynamicPlan(3, 5)
	for _, p := range []*Plan{static, darknetz, dynamic, uniform} {
		f.Add(p.Encode(), uint8(4)) // n = 4%32+1 = 5 layers
	}
	for _, h := range hostilePlans {
		f.Add(h.plan.Encode(), uint8(4)) // n = 4%32+1 = 5 layers
	}
	f.Fuzz(func(t *testing.T, blob []byte, layers uint8) {
		n := int(layers%32) + 1
		p, err := DecodePlan(blob)
		if err != nil || p.Validate(n) != nil {
			return
		}
		for c := 0; c < 2*n; c++ {
			prev := -1
			for _, l := range p.ProtectedLayers(c, n) {
				if l <= prev || l >= n {
					t.Fatalf("%s cycle %d of %d layers: protected %v", p, c, n, p.ProtectedLayers(c, n))
				}
				prev = l
			}
		}
	})
}

// TestGoldenPlanFormat pins the plan blob's bytes for each mode,
// recorded before the plan moved onto the field walker, and each blob
// must decode back to its plan exactly.
func TestGoldenPlanFormat(t *testing.T) {
	for _, c := range []struct {
		plan *Plan
		want string
	}{
		{&Plan{Mode: ModeStatic, Layers: []int{1, 4, 200}}, "dc9dd89599c0a560918046c406b3d78f122e7bcfec50aa4aa4fb68c2a7453f1c"},
		{&Plan{Mode: ModeDynamic, SizeMW: 2, VMW: []float64{0.2, 0.1, 0.6, 0.1}}, "f1f2b11b3dd34442da86eebbdbf60fccad4e82e063e45dd3e9be4d97dc3bcc2d"},
		{&Plan{Mode: ModeDarkneTZ, Layers: []int{1, 2, 3}}, "fe7c4da39d9064dd3d1b785800d7e2d8a3806dd10716214aa060c636e9985b14"},
	} {
		blob := c.plan.Encode()
		h := sha256.Sum256(blob)
		if got := hex.EncodeToString(h[:]); got != c.want {
			t.Errorf("%s: hash %s, recorded %s", c.plan, got, c.want)
		}
		dec, err := DecodePlan(blob)
		if err != nil {
			t.Fatalf("%s: %v", c.plan, err)
		}
		if !reflect.DeepEqual(dec, c.plan) {
			t.Errorf("decode = %+v, want %+v", dec, c.plan)
		}
	}
}
