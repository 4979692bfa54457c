package mpi

import (
	"testing"

	"partmb/internal/sim"
)

// BenchmarkEnterMultiple is one MPI call entry and exit under
// MPI_THREAD_MULTIPLE — lock, call overhead, unlock — the prologue of all 25
// library calls and of every MPI_Parrived poll. enter returns a value, not a
// closure, so the pin is 0 allocs/op (bench_allocs_baseline.json).
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
