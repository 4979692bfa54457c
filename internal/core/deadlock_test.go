package core

import (
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/sim"
)

// stuckThreads is the sender's thread body with one thread that never
// finishes: it waits on a completion nobody fires instead of readying. Its
// name is the real body's.
type stuckThreads struct {
	*readyThreads
	stuck int
	never sim.Completion
}

func (b *stuckThreads) Thread(tp *sim.Proc, i int) {
	if b.ready && i == b.stuck {
		b.never.Wait(tp)
	}
}

// TestDeadlockNamesRegionThreads forks both phases of run's iteration 1
// the way run does — one omp.Compute body over the sender's thread body —
// and leaves thread 2 of the partitioned phase parked. Before thread names
// were formatted lazily, run spawned that thread as fmt.Sprintf("w2-%d-%d",
// it, i); the DeadlockError must still name it so.
func TestDeadlockNamesRegionThreads(t *testing.T) {
	s := sim.New()
	place := cluster.Place(cluster.Niagara(), 4)
	threads := &readyThreads{}
	compute := omp.NewCompute(place, noise.New(noise.None, 0, 1, nil), sim.Microsecond, &stuckThreads{readyThreads: threads, stuck: 2})
	s.Spawn("bench/sender", func(p *sim.Proc) {
		for it := 0; it < 2; it++ {
			threads.name, threads.ready, threads.it = "w1-%d-%d", false, it
			omp.ComputeRegion(p, compute)
			threads.name, threads.ready = "w2-%d-%d", it == 1
			omp.Region(p, 4, compute)
		}
	})
	err := s.Run()
	const want = "sim: deadlock at t=4us with 2 blocked procs: bench/sender(#1): waitgroup wait; w2-1-2(#16): completion wait"
	if err == nil || err.Error() != want {
		t.Errorf("deadlock text\n got %v\nwant %s", err, want)
	}
}
