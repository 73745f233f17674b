// Command secagg walks through server-side secure aggregation: the
// same fleet scenario is run under plaintext FedAvg and under k-regular
// double masking (plus an aggregation enclave for the protected
// tensors), and
// the walkthrough verifies what the paper's threat model demands —
// the aggregates are bit-identical, while the masked path never shows
// the server an individual client's update.
//
//	go run ./examples/secagg
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/gradsec/gradsec"
)

func main() {
	fmt.Println("=== GradSec secure aggregation walkthrough ===")
	fmt.Println()

	// Part 1: full cohort — masks cancel, aggregates match bit for bit.
	fmt.Println("-- Part 1: masked aggregation, full cohort")
	base := gradsec.FleetScenario{
		Clients:          64,
		Rounds:           4,
		SampleFraction:   0.5,
		MinClients:       8,
		WeightedExamples: true,
		Seed:             42,
	}
	plain := run(base)
	masked := run(withSecAgg(base))
	fmt.Printf("   plaintext final norm-ish probe: %+.6f\n", plain.Final[0].Data[0])
	fmt.Printf("   masked    final norm-ish probe: %+.6f\n", masked.Final[0].Data[0])
	report("bit-identical models", plain, masked)
	fmt.Println()

	// Part 2: straggler dropout — the stragglers' neighbours reveal
	// their round seeds with them, everyone else's self masks come off
	// through Shamir shares, and the server subtracts exactly those.
	// With no degree configured a 20-client cohort gets k = 6, which
	// survives any ⌊(k−1)/2⌋ = 2 dropouts per round; fleets expecting
	// more churn pin a larger FleetScenario.MaskDegree.
	fmt.Println("-- Part 2: straggler dropout + mask reconciliation")
	drop := gradsec.FleetScenario{
		Clients:           20,
		Rounds:            3,
		Deadline:          2 * time.Second,
		StragglerFraction: 0.1,
		Seed:              7,
	}
	plainDrop := run(drop)
	maskedDrop := run(withSecAgg(drop))
	for _, st := range maskedDrop.Trace {
		fmt.Printf("   round %d: responded %2d, dropped %d, masks reconciled %d, |update| %.4f\n",
			st.Round, st.Responded, st.Dropped, st.Reconciled, st.UpdateNorm)
	}
	report("bit-identical to plaintext dropout run", plainDrop, maskedDrop)
	fmt.Println()

	// Part 3: protected tensors — sealed updates fold inside the
	// aggregation enclave; the server never unseals them.
	fmt.Println("-- Part 3: protected tensors through the aggregation enclave")
	prot := gradsec.FleetScenario{
		Clients:    16,
		Rounds:     3,
		Protect:    []int{0},
		RequireTEE: true,
		Seed:       11,
	}
	plainProt := run(prot)
	maskedProt := run(withSecAgg(prot))
	fmt.Printf("   enclave world switches (SMCs): %d\n", maskedProt.EnclaveSMCs)
	report("bit-identical to plaintext TEE run", plainProt, maskedProt)
	fmt.Println()

	fmt.Println("In the masked runs the server only ever folded uniformly random")
	fmt.Println("ring levels (plus sealed ciphertext routed into the enclave) —")
	fmt.Println("no individual client update existed outside a TEE at any point.")
}

func withSecAgg(sc gradsec.FleetScenario) gradsec.FleetScenario {
	sc.SecAgg = true
	return sc
}

func run(sc gradsec.FleetScenario) *gradsec.FleetResult {
	res, err := gradsec.RunFleet(sc)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// report prints whether the two runs landed on bit-identical models
// and fails the walkthrough (it doubles as make check's smoke-secagg)
// when they did not.
func report(claim string, a, b *gradsec.FleetResult) {
	ok := identical(a, b)
	fmt.Printf("   %s: %v\n", claim, ok)
	if !ok {
		log.Fatalf("secagg walkthrough: %q does not hold", claim)
	}
}

func identical(a, b *gradsec.FleetResult) bool {
	for i := range a.Final {
		for j := range a.Final[i].Data {
			if a.Final[i].Data[j] != b.Final[i].Data[j] {
				return false
			}
		}
	}
	return true
}
