// Command fleet demonstrates the concurrent FL round engine against a
// simulated heterogeneous edge fleet: 256 clients with stragglers,
// training failures, and non-TEE devices, half-fleet sampling per round,
// and a per-round deadline — the operating regime of the paper's Fig. 2
// deployment story at scale. The scenario is fully deterministic: the
// command reruns it and exits non-zero unless the rerun's trace,
// quarantine set and final model are identical.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"reflect"
	"time"

	"github.com/gradsec/gradsec"
)

// scenario builds the fleet over a fresh copy of the global model: the
// paper's LeNet-5 flat parameter tensors.
func scenario() gradsec.FleetScenario {
	model := gradsec.NewLeNet5(rand.New(rand.NewSource(7)), gradsec.ActReLU)
	return gradsec.FleetScenario{
		Clients:           256,
		Rounds:            8,
		MinClients:        16,
		SampleFraction:    0.5,
		Deadline:          2 * time.Second,
		StragglerFraction: 0.10,
		FailureFraction:   0.05,
		NoTEEFraction:     0.05,
		RequireTEE:        true,
		Seed:              42,
		Model:             model.StateDict(),
	}
}

func main() {
	sc := scenario()
	fmt.Printf("fleet: %d clients, %d rounds, sample %.0f%%, deadline %v\n",
		sc.Clients, sc.Rounds, sc.SampleFraction*100, sc.Deadline)
	fmt.Printf("       %.0f%% stragglers, %.0f%% failing, %.0f%% without TEE (rejected: RequireTEE)\n\n",
		sc.StragglerFraction*100, sc.FailureFraction*100, sc.NoTEEFraction*100)

	start := time.Now()
	res, err := gradsec.RunFleet(sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("selection: %d accepted, %d rejected\n\n", res.Selected, res.Rejected)
	fmt.Println("round  sampled  responded  dropped  quarantined  |update|")
	for _, st := range res.Trace {
		fmt.Printf("%5d  %7d  %9d  %7d  %11d  %8.4f\n",
			st.Round, st.Sampled, st.Responded, st.Dropped, st.Quarantined, st.UpdateNorm)
	}
	fmt.Printf("\nquarantined devices: %v\n", res.Quarantined)
	fmt.Printf("virtual deadline time: %v, wall time: %v\n", res.Elapsed, time.Since(start).Round(time.Millisecond))

	again, err := gradsec.RunFleet(scenario())
	if err != nil {
		log.Fatal(err)
	}
	same := reflect.DeepEqual(res.Trace, again.Trace) && reflect.DeepEqual(res.Quarantined, again.Quarantined) &&
		res.Elapsed == again.Elapsed && reflect.DeepEqual(res.Final, again.Final)
	fmt.Printf("rerun identical (trace, quarantine set, final model): %v\n", same)
	if !same {
		log.Fatal("the rerun diverged")
	}
}
