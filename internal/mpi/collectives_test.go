package mpi

import (
	"testing"

	"partmb/internal/sim"
)

// runColl runs body on every rank of an n-rank world and returns per-rank
// completion times.
func runColl(t *testing.T, n int, body func(c *Comm, p *sim.Proc)) []sim.Time {
	t.Helper()
	s := sim.New()
	w := NewWorld(s, DefaultConfig(n))
	done := make([]sim.Time, n)
	w.Launch("coll", func(c *Comm, p *sim.Proc) {
		body(c, p)
		done[c.Rank()] = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

func TestGatherRootFinishesLast(t *testing.T) {
	done := runColl(t, 6, func(c *Comm, p *sim.Proc) {
		p.Sleep(sim.Duration(c.Rank()) * sim.Millisecond) // skewed arrival
		c.reduce(p, 0, 64<<10)
	})
	for r := 1; r < 6; r++ {
		if done[0] < done[r]-sim.Time(sim.Millisecond) {
			// Root must wait for every contribution, so it cannot finish
			// much before any sender's local completion.
			t.Fatalf("root finished at %v, rank %d at %v", done[0], r, done[r])
		}
	}
	if done[0] < sim.Time(5*sim.Millisecond) {
		t.Fatalf("root finished at %v, before the slowest contributor", done[0])
	}
}

func TestScatterLeavesRootEarly(t *testing.T) {
	done := runColl(t, 5, func(c *Comm, p *sim.Proc) {
		c.scatter(p, 2, 128<<10)
	})
	for r, at := range done {
		if at <= 0 {
			t.Fatalf("rank %d never completed scatter", r)
		}
	}
}

func TestAlltoallPowerOfTwo(t *testing.T) {
	done := runColl(t, 8, func(c *Comm, p *sim.Proc) {
		c.alltoall(p, 16<<10)
	})
	for r, at := range done {
		if at <= 0 {
			t.Fatalf("rank %d never completed alltoall", r)
		}
	}
}

func TestAlltoallNonPowerOfTwo(t *testing.T) {
	done := runColl(t, 6, func(c *Comm, p *sim.Proc) {
		c.alltoall(p, 4<<10)
	})
	for r, at := range done {
		if at <= 0 {
			t.Fatalf("rank %d never completed alltoall", r)
		}
	}
}

func TestCollectivesSingleRankNoOp(t *testing.T) {
	runColl(t, 1, func(c *Comm, p *sim.Proc) {
		c.reduce(p, 0, 1024)
		c.scatter(p, 0, 1024)
		c.alltoall(p, 1024)
	})
}

func TestRepeatedCollectivesNoCrossMatch(t *testing.T) {
	// Back-to-back different collectives must not cross-match even with
	// rank skew.
	runColl(t, 4, func(c *Comm, p *sim.Proc) {
		p.Sleep(sim.Duration(c.Rank()*977) * sim.Nanosecond)
		for i := 0; i < 5; i++ {
			c.alltoall(p, 512)
			c.reduce(p, i%4, 256)
			c.Barrier(p)
		}
	})
}

func TestAlltoallMovesExpectedBytes(t *testing.T) {
	const n = 4
	size := int64(64 << 10)
	s := sim.New()
	w := NewWorld(s, DefaultConfig(n))
	w.Launch("a2a", func(c *Comm, p *sim.Proc) {
		c.alltoall(p, size)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < n; r++ {
		total += w.Comm(r).NICStats().Bytes
	}
	want := int64(n) * int64(n-1) * size
	if total != want {
		t.Fatalf("alltoall moved %d bytes, want %d", total, want)
	}
}

// The runtime's collectives are Barrier, Bcast and Allreduce, plus the
// flat reduce Allreduce is built from; the flat reduce is also the flat
// gather the tests call. The flat scatter
// and the pairwise alltoall below are built in the test on the collective
// context, to check fan-in and fan-out timing, isolation between
// back-to-back collectives and the bytes the NICs move.

// scatter models root sending a distinct size-byte block to every rank
// (flat algorithm).
func (c *Comm) scatter(p *sim.Proc, root int, size int64) {
	n := c.size()
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return
	}
	const tag = 0
	if c.Rank() == root {
		// Nonblocking sends so blocks stream back to back.
		var reqs []*Request
		for r := 0; r < n; r++ {
			if r != root {
				reqs = append(reqs, c.isendColl(p, r, tag, size))
			}
		}
		for _, r := range reqs {
			r.finish(p)
		}
		return
	}
	c.recvColl(p, root, tag)
}

// alltoall models the full personalized exchange: every rank sends a
// distinct size-byte block to every other rank (pairwise exchange
// algorithm, n-1 rounds).
func (c *Comm) alltoall(p *sim.Proc, size int64) {
	n := c.size()
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return
	}
	// One algorithm for all ranks: XOR pairwise exchange when the world is
	// a power of two (each round is a perfect matching), ring offsets
	// otherwise.
	pairwise := n&(n-1) == 0
	for step := 1; step < n; step++ {
		me := c.Rank()
		var to, from int
		if pairwise {
			to = me ^ step
			from = to
		} else {
			to = (me + step) % n
			from = (me - step + n) % n
		}
		tag := step
		sreq := c.isendColl(p, to, tag, size)
		c.recvColl(p, from, tag)
		sreq.finish(p)
	}
}
