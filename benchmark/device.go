package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/gradsec/gradsec/internal/core"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/fl"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
	"github.com/gradsec/gradsec/internal/tz"
)

// The device-train workload's local training shape.
const (
	deviceIterations = 4
	deviceBatch      = 16
	deviceWindow     = 2 // moving-window size of the dynamic plan
)

// devicePeriod is the number of cycles after which the uniform moving
// window over LeNet-5's five layers repeats.
var devicePeriod = core.WindowPositions(5, deviceWindow)

// runDeviceTrain is one session of the paper's core: one simulated
// TrustZone device training LeNet-5 under a moving protection window,
// plus the server-side unseal of every cycle's update. No fl, wire or
// secagg code runs here.
func runDeviceTrain(s *session) error {
	seed := s.cfg.seed
	net := nn.NewLeNet5(rand.New(rand.NewSource(seed)), nn.ActReLU)
	gen := dataset.NewGenerator(rand.New(rand.NewSource(seed+1)), nn.NumClasses, 3, 32, 32, 0.2)
	data := gen.FixedSet(rand.New(rand.NewSource(seed+2)), 2)
	batches := rand.New(rand.NewSource(seed + 3 + int64(s.index)))

	dev := tz.NewDevice("bench-pi")
	plan, err := core.UniformDynamicPlan(deviceWindow, net.NumLayers())
	if err != nil {
		return err
	}
	trainer, err := core.NewSecureTrainer(dev, net, plan, core.TrainerConfig{
		Iterations: deviceIterations, LR: 0.05,
		Batch: func(int, int) (*tensor.Tensor, *tensor.Tensor) { return data.RandomBatch(batches, deviceBatch) },
	})
	if err != nil {
		return err
	}
	view, err := core.EstablishServerView(trainer)
	if err != nil {
		return err
	}
	model := core.NewOverheadSim(net)
	model.Batch, model.Iterations = deviceBatch, deviceIterations

	var period []*core.CycleResult // the first sampled window period
	for c := 0; c < s.rounds(); c++ {
		if c == warmupOps {
			s.beginSampling()
		}
		smc0 := dev.SMCCount()
		root := s.tr.openRoot("device.op", s.index, c, s.tr.now())
		start := time.Now()
		res, err := trainer.RunCycle(c)
		mid := time.Now()
		var full []*tensor.Tensor
		if err == nil {
			full, err = view.FullUpdate(res)
		}
		took := time.Since(start)
		if s.tr != nil {
			end := s.tr.now()
			begin := end - int64(took)
			s.tr.closeRoot(root, end)
			s.tr.add("core.cycle", root, s.index, c, begin, begin+int64(mid.Sub(start)))
			s.tr.add("core.unseal", root, s.index, c, begin+int64(mid.Sub(start)), end)
		}
		if err == nil {
			err = checkCycle(net, res, full)
		}
		if err == nil {
			sim := res.Cost.Total().Seconds()
			smc := float64(dev.SMCCount() - smc0)
			peakKB := float64(res.PeakTEEBytes) / 1024
			// The modelled costs are functions of the plan alone: every
			// session must see the same value at the same cycle.
			pin := func(key string, v float64) {
				if perr := s.res.pin(fmt.Sprintf("%s@cycle%d", key, c), v); perr != nil && err == nil {
					err = perr
				}
			}
			pin("sim_cycle_s", sim)
			pin("smc_per_cycle", smc)
			pin("tee_peak_kb", peakKB)
			// One whole window period per session feeds the means, so
			// they do not depend on how many cycles the session ran.
			if c >= warmupOps && c < warmupOps+devicePeriod {
				s.res.observe("sim_cycle_s", sim)
				s.res.observe("core.sim_user_s", res.Cost.User.Seconds())
				s.res.observe("core.sim_kernel_s", res.Cost.Kernel.Seconds())
				s.res.observe("core.sim_alloc_s", res.Cost.Alloc.Seconds())
				s.res.observe("core.sim_model_drift", sim/model.CycleCost(res.Protected).Total().Seconds())
				s.res.observe("smc_per_cycle", smc)
				s.res.observe("tee_peak_kb", peakKB)
			}
		}
		if c >= warmupOps {
			s.record(took, 1, err)
		} else if err != nil {
			s.res.fail(fmt.Errorf("session %d warm-up cycle %d: %w", s.index, c, err))
		}
		if err == nil && c >= warmupOps && c < warmupOps+devicePeriod {
			period = append(period, res)
		}
	}
	s.endSampling()

	// wire_mb_per_round: what each cycle's result costs to upload, as the
	// GradUp frame fl.Client would send. Encoded after the sampled window
	// (so alloc_mb_per_round stays the device's own) for one window
	// period, whose mean stands for every sampled cycle.
	if n := len(period); n > 0 {
		bytes := 0
		for _, res := range period {
			up := &fl.GradUp{Round: res.Cycle, Plain: res.Observable, Sealed: res.SealedUpdate}
			bytes += 5 + len(fl.EncodeMessage(up)) // 5 = frame header
		}
		s.res.wire.TxBytes += uint64(bytes / n * s.ops)
		s.res.wire.TxFrames[0] += uint64(s.ops)
	}
	return nil
}

// checkCycle is the device-train oracle: finite loss, an attacker's
// view that is blind exactly at the protected tensors, and a server
// view that is complete.
func checkCycle(net *nn.Network, res *core.CycleResult, full []*tensor.Tensor) error {
	if math.IsNaN(res.MeanLoss) || math.IsInf(res.MeanLoss, 0) {
		return fmt.Errorf("cycle %d: loss is %v", res.Cycle, res.MeanLoss)
	}
	protected := core.FlatIndicesForLayers(net, res.Protected)
	for i, t := range res.Observable {
		if (t == nil) != protected[i] {
			return fmt.Errorf("cycle %d: observable tensor %d nil=%v, protected=%v", res.Cycle, i, t == nil, protected[i])
		}
	}
	for i, t := range full {
		if t == nil {
			return fmt.Errorf("cycle %d: server view is missing tensor %d", res.Cycle, i)
		}
	}
	return nil
}
