package mpi

import (
	"testing"

	"partmb/internal/sim"
)

// BenchmarkEnterMultiple is one MPI call entry and exit under
// MPI_THREAD_MULTIPLE — lock, call overhead, unlock — the prologue of all 25
// library calls and of every MPI_Parrived poll.
func BenchmarkEnterMultiple(b *testing.B) {
	s := sim.New()
	cfg := DefaultConfig(2)
	cfg.ThreadMode = Multiple
	c := NewWorld(s, cfg).Comm(0)
	s.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.enter(p, 0).done()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestEnterMultipleAllocs pins the same call at 0 allocs: enter returns a
// value, not a closure.
func TestEnterMultipleAllocs(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(2)
	cfg.ThreadMode = Multiple
	c := NewWorld(s, cfg).Comm(0)
	var allocs float64
	s.Spawn("caller", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(1000, func() { c.enter(p, 0).done() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("enter+done allocates %v times per call, want 0", allocs)
	}
}
