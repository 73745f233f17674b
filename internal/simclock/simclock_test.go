package simclock

import (
	"math"
	"testing"
	"time"
)

func TestClockAccumulation(t *testing.T) {
	var c Clock
	c.ChargeUser(2 * time.Second)
	c.ChargeKernel(time.Second)
	c.ChargeAlloc(500 * time.Millisecond)
	if c.User() != 2*time.Second || c.Kernel() != time.Second || c.Alloc() != 500*time.Millisecond {
		t.Fatalf("buckets = %v/%v/%v", c.User(), c.Kernel(), c.Alloc())
	}
	if c.Total() != 3500*time.Millisecond {
		t.Fatalf("Total = %v", c.Total())
	}
	snap := c.Snapshot()
	c.Reset()
	if c.Total() != 0 {
		t.Fatalf("Total after reset = %v", c.Total())
	}
	if snap.Total() != 3500*time.Millisecond {
		t.Fatalf("snapshot total = %v", snap.Total())
	}
}

func TestBreakdownAddScaleString(t *testing.T) {
	a := Breakdown{User: time.Second, Kernel: 2 * time.Second, Alloc: 3 * time.Second}
	b := a.Add(a)
	if b.User != 2*time.Second || b.Kernel != 4*time.Second || b.Alloc != 6*time.Second {
		t.Fatalf("Add = %+v", b)
	}
	h := a.Scale(0.5)
	if h.User != 500*time.Millisecond {
		t.Fatalf("Scale = %+v", h)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

// The calibration anchors from the paper's Table 6 (docs/COSTMODEL.md):
// alloc(3.6K params) ≈ 0.34 s, alloc(76.9K params) ≈ 4.68 s.
func TestPi3BAllocCalibration(t *testing.T) {
	m := Pi3B()
	cases := []struct {
		params int
		want   float64 // seconds
		tol    float64
	}{
		{3612, 0.34, 0.05},  // LeNet-5 L2–L4 (3600 weights + 12 biases)
		{76900, 4.68, 0.35}, // LeNet-5 L5
		{912, 0.09, 0.05},   // LeNet-5 L1 (predicted 0.104 in the fit)
	}
	for _, tc := range cases {
		got := m.AllocTime(tc.params).Seconds()
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("AllocTime(%d) = %.3fs, want %.2f±%.2f", tc.params, got, tc.want, tc.tol)
		}
	}
	if m.AllocTime(0) != 0 || m.AllocTime(-5) != 0 {
		t.Fatal("AllocTime of non-positive params must be 0")
	}
}

// The summed per-layer user time of LeNet-5 (998400 MACs × batch 32 ×
// 10 iters, forward+backward) must land near the paper's 1.966 s; with
// the 0.225 s residual that reproduces the 2.191 s baseline user time.
func TestPi3BLayerComputeCalibration(t *testing.T) {
	m := Pi3B()
	macs := int64(998400) * 32 * 10
	got := m.LayerCompute(macs, true).Seconds()
	if math.Abs(got-1.966) > 0.05 {
		t.Fatalf("summed user share = %.3fs, want ≈1.966s", got)
	}
	fwd := m.LayerCompute(macs, false)
	if fwd >= m.LayerCompute(macs, true) {
		t.Fatal("forward-only must cost less than forward+backward")
	}
}

func TestSecureComputeFactor(t *testing.T) {
	m := Pi3B()
	d := m.SecureCompute(time.Second)
	if d != 1250*time.Millisecond {
		t.Fatalf("SecureCompute = %v", d)
	}
}

func TestAllocMonotone(t *testing.T) {
	m := Pi3B()
	prev := time.Duration(0)
	for _, p := range []int{1, 10, 100, 1000, 10000, 100000} {
		d := m.AllocTime(p)
		if d <= prev {
			t.Fatalf("AllocTime not monotone at %d params", p)
		}
		prev = d
	}
}
