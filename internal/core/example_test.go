package core_test

import (
	"fmt"

	"partmb/internal/core"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

// ExampleRun measures the paper's four metrics at one parameter point.
// The simulation is deterministic, so the printed values are exact.
func ExampleRun() {
	res, err := core.Run(core.Config{
		MessageBytes: 1 << 20,
		Partitions:   16,
		Compute:      10 * sim.Millisecond,
		Platform: platform.Niagara().
			WithNoise(noise.SingleThread, 4).
			WithThreadMode(mpi.Multiple),
		Iterations: 5,
		Warmup:     1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("overhead: %.1fx\n", res.Overhead)
	fmt.Printf("availability: %.2f\n", res.Availability)
	fmt.Printf("early-bird: %.0f%%\n", res.EarlyBird)
	// Output:
	// overhead: 4.4x
	// availability: 0.87
	// early-bird: 97%
}

// ExampleAdvise asks the suite for a partition-count recommendation, the
// developer guidance the paper's abstract promises.
func ExampleAdvise() {
	adv, err := core.Advise(nil, core.Config{
		MessageBytes: 1 << 20,
		Partitions:   1,
		Compute:      10 * sim.Millisecond,
		Platform: platform.Niagara().
			WithNoise(noise.SingleThread, 4).
			WithThreadMode(mpi.Multiple),
		Iterations: 3,
		Warmup:     1,
	}, []int{1, 4, 16}, core.DefaultAdvisorWeights())
	if err != nil {
		panic(err)
	}
	fmt.Printf("recommended: %d partitions\n", adv.Candidates[0].Partitions)
	// Output: recommended: 16 partitions
}
