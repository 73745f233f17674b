// Package simclock provides a deterministic virtual clock and the
// Raspberry-Pi-3B+/OP-TEE cost model used to reproduce the paper's
// overhead experiments (Table 6, Figures 7–8).
//
// The paper's measurements are additive per protected layer (its combined
// rows are exact sums of its per-layer rows, e.g. allocation for L2+L5 =
// 0.34 s + 4.68 s = 5.02 s and TEE memory 0.565 + 0.704 = 1.269 MB), so a
// calibrated per-layer analytic model reproduces every configuration —
// including the dynamic moving-window weighted averages — while remaining
// machine-independent and deterministic. docs/COSTMODEL.md lists the
// model's terms; Pi3B's comment holds the calibration fit.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Clock accumulates simulated time in the three buckets the paper
// reports: user time (normal-world compute), kernel time (secure-world
// compute) and TEE memory allocation time.
type Clock struct {
	user, kernel, alloc time.Duration
}

// ChargeUser adds normal-world compute time.
func (c *Clock) ChargeUser(d time.Duration) { c.user += d }

// ChargeKernel adds secure-world compute time.
func (c *Clock) ChargeKernel(d time.Duration) { c.kernel += d }

// ChargeAlloc adds TEE memory allocation time.
func (c *Clock) ChargeAlloc(d time.Duration) { c.alloc += d }

// User returns accumulated normal-world time.
func (c *Clock) User() time.Duration { return c.user }

// Kernel returns accumulated secure-world time.
func (c *Clock) Kernel() time.Duration { return c.kernel }

// Alloc returns accumulated allocation time.
func (c *Clock) Alloc() time.Duration { return c.alloc }

// Total returns the sum of all buckets.
func (c *Clock) Total() time.Duration { return c.user + c.kernel + c.alloc }

// Reset zeroes all buckets.
func (c *Clock) Reset() { c.user, c.kernel, c.alloc = 0, 0, 0 }

// Snapshot returns the current bucket values.
func (c *Clock) Snapshot() Breakdown {
	return Breakdown{User: c.user, Kernel: c.kernel, Alloc: c.alloc}
}

// Breakdown is an immutable copy of a Clock's buckets.
type Breakdown struct {
	User, Kernel, Alloc time.Duration
}

// Total returns the sum of the breakdown's buckets.
func (b Breakdown) Total() time.Duration { return b.User + b.Kernel + b.Alloc }

// Add returns the bucketwise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{User: b.User + o.User, Kernel: b.Kernel + o.Kernel, Alloc: b.Alloc + o.Alloc}
}

// Scale returns the breakdown scaled by f (used for the paper's
// VMW-weighted averages).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		User:   time.Duration(float64(b.User) * f),
		Kernel: time.Duration(float64(b.Kernel) * f),
		Alloc:  time.Duration(float64(b.Alloc) * f),
	}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("user %.3fs + kernel %.3fs + alloc %.3fs", b.User.Seconds(), b.Kernel.Seconds(), b.Alloc.Seconds())
}

// CostModel parameterises the simulated device.
type CostModel struct {
	// MACNanos is normal-world time per multiply-accumulate, in
	// nanoseconds (fractional: the calibrated Pi value is 2.35 ns).
	MACNanos float64
	// BackwardFactor scales forward MACs to forward+backward cost
	// (backward recomputes roughly twice the forward work).
	BackwardFactor float64
	// SecureFactor is the slowdown of secure-world compute relative to
	// the normal world.
	SecureFactor float64
	// WorldSwitch is the cost of one SMC world transition.
	WorldSwitch time.Duration
	// AllocCoeff/AllocExp model TEE weight-allocation + trusted-I/O-path
	// transfer time as alloc(P) = AllocCoeff · P^AllocExp for P scalar
	// parameters.
	AllocCoeff time.Duration
	// AllocExp is the (sub-linear) allocation exponent.
	AllocExp float64
	// CycleUserOverhead is fixed per-cycle normal-world overhead outside
	// the layers (data loading, bookkeeping).
	CycleUserOverhead time.Duration
	// CycleKernelOverhead is fixed per-cycle secure-world overhead (the
	// paper's 0.021 s baseline kernel time).
	CycleKernelOverhead time.Duration
	// BytesPerCell is the storage size of one tensor cell for TEE memory
	// accounting. The paper's Darknet substrate uses float32, hence 4.
	BytesPerCell int
}

// Pi3B returns the cost model calibrated against the paper's Table 6
// (Raspberry Pi 3B+, ARM Cortex-A53 @1.4 GHz, OP-TEE; LeNet-5, CIFAR-100,
// batch size 32). The fit (docs/COSTMODEL.md has the terms it feeds):
//
//   - the summed per-layer user-time shares of Table 6 (1.966 s over
//     3·32·I·998400 MACs with I = 10 local iterations per cycle) give
//     ≈2.05 ns/MAC — per-layer shares then deviate from the paper's
//     (which are not uniform per MAC: its L1 runs anomalously fast), but
//     the baseline and every multi-layer configuration track closely;
//   - secure slowdown κ ≈ 1.25 from the kernel/user deltas of L2–L4;
//   - alloc(P) = 3.05e-4 s · P^0.857 fitted through the paper's
//     (3.6 K params → 0.34 s) and (76.9 K params → 4.68 s) points;
//   - residual per-cycle user time 0.225 s and kernel time 0.021 s.
func Pi3B() CostModel {
	return CostModel{
		MACNanos:            2.05,
		BackwardFactor:      3.0,
		SecureFactor:        1.25,
		WorldSwitch:         300 * time.Microsecond,
		AllocCoeff:          time.Duration(3.05e-4 * float64(time.Second)),
		AllocExp:            0.857,
		CycleUserOverhead:   225 * time.Millisecond,
		CycleKernelOverhead: 21 * time.Millisecond,
		BytesPerCell:        4,
	}
}

// LayerCompute returns the normal-world time to execute macs
// multiply-accumulates of forward pass work, including the backward
// factor when backward is true.
func (m CostModel) LayerCompute(macs int64, backward bool) time.Duration {
	f := 1.0
	if backward {
		f = m.BackwardFactor
	}
	return time.Duration(float64(macs) * f * m.MACNanos * float64(time.Nanosecond))
}

// SecureCompute converts a normal-world compute duration to its
// secure-world equivalent.
func (m CostModel) SecureCompute(d time.Duration) time.Duration {
	return time.Duration(float64(d) * m.SecureFactor)
}

// AllocTime returns the simulated time to allocate and provision TEE
// memory for params scalar parameters.
func (m CostModel) AllocTime(params int) time.Duration {
	if params <= 0 {
		return 0
	}
	return time.Duration(float64(m.AllocCoeff) * math.Pow(float64(params), m.AllocExp))
}
