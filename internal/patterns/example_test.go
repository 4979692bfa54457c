package patterns_test

import (
	"fmt"

	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/sim"
)

// ExampleRunSweep3D runs the wavefront motif in partitioned mode on a tiny
// grid. The simulation is deterministic, so the payload accounting is exact.
func ExampleRunSweep3D() {
	res, err := patterns.RunSweep3D(patterns.SweepConfig{
		Px: 2, Py: 2,
		Threads:        4,
		BytesPerThread: 64 << 10,
		Compute:        sim.Millisecond,
		ZBlocks:        2,
		Octants:        4,
		Repeats:        1,
		Mode:           patterns.Partitioned,
		Platform:       platform.Niagara().WithNoise(noise.SingleThread, 4).WithImpl(mpi.PartMPIPCL),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("payload moved: %dMiB\n", res.PayloadBytes>>20)
	// Output: payload moved: 8MiB
}

// ExampleRunHalo3D shows the 7-point halo exchange: on a 2x2x2 torus every
// rank sends six faces per step.
func ExampleRunHalo3D() {
	res, err := patterns.RunHalo3D(patterns.HaloConfig{
		Nx: 2, Ny: 2, Nz: 2,
		ThreadsPerDim: 2,
		FaceBytes:     256 << 10,
		Compute:       sim.Millisecond,
		Repeats:       2,
		Mode:          patterns.Single,
	})
	if err != nil {
		panic(err)
	}
	// 8 ranks x 6 faces x 2 steps = 96 payload messages, plus protocol and
	// barrier control traffic.
	fmt.Printf("messages: %d\n", res.Messages)
	// Output: messages: 336
}

// ExampleIncast shows the fan-in motif: per-sender throughput at the sink
// is bounded by receiver-side serialization.
func ExampleIncast() {
	res, err := patterns.Incast.Run(nil, patterns.IncastConfig{
		Senders:        4,
		Threads:        4,
		BytesPerThread: 128 << 10,
		Compute:        sim.Millisecond,
		Repeats:        2,
		Mode:           patterns.Partitioned,
		Platform:       platform.Niagara().WithImpl(mpi.PartNative),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("payload moved: %dKiB\n", res.PayloadBytes>>10)
	// Output: payload moved: 4096KiB
}
