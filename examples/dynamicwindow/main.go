// Dynamic window demo: shows dynamic GradSec sliding its moving window
// across the model over FL cycles following the paper's best DPIA
// defence distribution VMW = [0.2, 0.1, 0.6, 0.1], and the resulting
// per-cycle TEE cost from the Pi-3B+ model. It then trains the same plan
// on a simulated device for one window period and checks that the clock
// the live trainer charged is the model's, to the nanosecond (it exits
// non-zero otherwise; = make smoke-dynamicwindow).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"github.com/gradsec/gradsec"
	"github.com/gradsec/gradsec/internal/dataset"
	"github.com/gradsec/gradsec/internal/nn"
	"github.com/gradsec/gradsec/internal/tensor"
)

func main() {
	model := gradsec.NewLeNet5(rand.New(rand.NewSource(1)), gradsec.ActReLU)
	plan, err := gradsec.NewDynamicPlan(2, []float64{0.2, 0.1, 0.6, 0.1})
	if err != nil {
		log.Fatal(err)
	}
	sim := gradsec.NewOverheadSim(model)

	fmt.Println("dynamic GradSec, sizeMW=2, VMW=[0.2 0.1 0.6 0.1] (paper's DPIA defence):")
	counts := make([]int, 4)
	for cycle := 0; cycle < 20; cycle++ {
		layers := plan.ProtectedLayers(cycle, model.NumLayers())
		counts[layers[0]]++
		cost := sim.CycleCost(layers)
		fmt.Printf("  cycle %2d: window L%d+L%d  cost %s  TEE %.3f MB\n",
			cycle, layers[0]+1, layers[1]+1, cost, float64(sim.TEEMemory(layers))/1e6)
	}
	fmt.Printf("window position counts over 20 cycles: %v (ideal 4/2/12/2)\n", counts)

	dyn, err := sim.Dynamic(plan)
	if err != nil {
		log.Fatal(err)
	}
	darknetz := sim.CycleCost([]int{1, 2, 3, 4})
	fmt.Printf("VMW-weighted average cycle: %s\n", dyn.Average)
	fmt.Printf("DarkneTZ (L2..L5) cycle:    %s\n", darknetz)
	fmt.Printf("training-time gain vs DarkneTZ: %.1f%% (paper: 56.7%%)\n",
		(1-dyn.Average.Total().Seconds()/darknetz.Total().Seconds())*100)

	// One window period (10 cycles at this VMW) on a simulated device,
	// at a shape small enough for a smoke test: the live trainer and the
	// model charge one cost table, so they must agree exactly.
	const batch, iters, period = 2, 1, 10
	sim.Batch, sim.Iterations = batch, iters
	data := dataset.NewGenerator(rand.New(rand.NewSource(2)), nn.NumClasses, 3, 32, 32, 0.2).FixedSet(rand.New(rand.NewSource(3)), 1)
	batches := rand.New(rand.NewSource(4))
	dev := gradsec.NewDevice("pi-dynamic")
	trainer, err := gradsec.NewSecureTrainer(dev, model, plan, gradsec.TrainerConfig{
		Iterations: iters, LR: 0.05,
		Batch: func(int, int) (*tensor.Tensor, *tensor.Tensor) { return data.RandomBatch(batches, batch) },
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := gradsec.EstablishServerView(trainer); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live SecureTrainer vs the model, batch %d × %d iteration(s):\n", batch, iters)
	for cycle := 0; cycle < period; cycle++ {
		res, err := trainer.RunCycle(cycle)
		if err != nil {
			log.Fatal(err)
		}
		want := sim.CycleCost(res.Protected)
		fmt.Printf("  cycle %2d: window L%d+L%d  live %s  model %s\n",
			cycle, res.Protected[0]+1, res.Protected[1]+1, res.Cost, want)
		if res.Cost != want {
			log.Fatalf("cycle %d: live clock %+v differs from the cost model %+v", cycle, res.Cost, want)
		}
	}
	fmt.Println("live clock == cost model on every cycle: true")
}
