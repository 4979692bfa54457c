package noise_test

import (
	"context"
	"sync"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/noise"
	"partmb/internal/sim"
)

// TestSharedModelUnderRace shares ONE noise model across 8 raw goroutines.
// Before the Model grew its mutex this was a data race on the embedded
// *rand.Rand (run under -race to see it); now sharing is merely
// nondeterministic, never racy.
func TestSharedModelUnderRace(t *testing.T) {
	shared := noise.New(noise.Gaussian, 10, 42, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := shared.Region(4, sim.Microsecond)
				if len(out) != 4 {
					panic("bad region length")
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedModelUnderEngineWorkers drives the shared model through the
// engine's worker pool at -workers 8 — the sweep shape the audit is about:
// a model captured by a cell closure and executed from many worker
// goroutines at once.
func TestSharedModelUnderEngineWorkers(t *testing.T) {
	for _, kind := range []noise.Kind{noise.SingleThread, noise.Uniform, noise.Gaussian, noise.Periodic} {
		shared := noise.New(kind, 5, 7, nil)
		rn := engine.New(engine.Workers(8), engine.WithoutCache())
		_, err := rn.Map(context.Background(), 64, func(ctx context.Context, i int) (any, error) {
			var total sim.Duration
			for _, d := range shared.Region(8, sim.Microsecond) {
				total += d
			}
			return int64(total), nil
		})
		if err != nil {
			t.Fatalf("kind %v: %v", kind, err)
		}
	}
}
