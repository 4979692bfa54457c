package mpi

import (
	"strings"
	"testing"

	"partmb/internal/sim"
)

// shardedPair builds a 2-rank world with one rank per shard, lookahead equal
// to the wire latency.
func shardedPair(t *testing.T, mutate func(*Config)) (*sim.ShardGroup, *World) {
	t.Helper()
	cfg := DefaultConfig(2)
	if mutate != nil {
		mutate(&cfg)
	}
	g := sim.NewShardGroup(nil, 2, cfg.Net.Latency)
	w, err := NewShardedWorld(g, cfg, func(rank int) int { return rank })
	if err != nil {
		t.Fatal(err)
	}
	return g, w
}

func TestShardedPingPong(t *testing.T) {
	g, w := shardedPair(t, nil)
	const rounds = 10
	var r0Elapsed sim.Duration
	w.Launch("pingpong", func(c *Comm, p *sim.Proc) {
		peer := 1 - c.Rank()
		start := p.Now()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.SendBytes(p, peer, i, 8)
				c.Recv(p, peer, i)
			} else {
				c.Recv(p, peer, i)
				c.SendBytes(p, peer, i, 8)
			}
		}
		if c.Rank() == 0 {
			r0Elapsed = p.Now().Sub(start)
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if r0Elapsed <= 0 {
		t.Fatalf("rank 0 elapsed = %v, want > 0", r0Elapsed)
	}
	// Sanity: 10 round trips must cost at least 20 one-way latencies.
	if min := sim.Duration(2*rounds) * w.cfg.Net.Latency; r0Elapsed < min {
		t.Fatalf("elapsed %v < wire minimum %v", r0Elapsed, min)
	}
}

// TestShardedMatchesSequential runs the same small program on a sequential
// world and on a 2-shard world and requires identical virtual timings —
// the conservative synchronization must not change simulation results.
func TestShardedMatchesSequential(t *testing.T) {
	run := func(shards int) []sim.Time {
		cfg := DefaultConfig(4)
		var w *World
		var runIt func() error
		if shards == 1 {
			s := sim.New()
			w = NewWorld(s, cfg)
			runIt = s.Run
		} else {
			g := sim.NewShardGroup(nil, shards, cfg.Net.Latency)
			sw, err := NewShardedWorld(g, cfg, func(rank int) int { return rank % shards })
			if err != nil {
				t.Fatal(err)
			}
			w = sw
			runIt = g.Run
		}
		ends := make([]sim.Time, 4)
		w.Launch("ring", func(c *Comm, p *sim.Proc) {
			me := c.Rank()
			next := (me + 1) % c.size()
			prev := (me + 3) % c.size()
			for i := 0; i < 5; i++ {
				sr := c.IsendBytes(p, next, i, 1024)
				c.Recv(p, prev, i)
				sr.Wait(p)
				// A larger rendezvous-path message every other round.
				if i%2 == 1 {
					sr = c.IsendBytes(p, next, 100+i, 64*1024)
					c.Recv(p, prev, 100+i)
					sr.Wait(p)
				}
			}
			ends[me] = p.Now()
		})
		if err := runIt(); err != nil {
			t.Fatal(err)
		}
		return ends
	}

	seq := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for r := range seq {
			if got[r] != seq[r] {
				t.Fatalf("shards=%d: rank %d finished at %v, sequential %v", shards, r, got[r], seq[r])
			}
		}
	}
}

// TestShardedNativePartitioned exercises the cross-shard deferred bind
// handshake and the native data path.
func TestShardedNativePartitioned(t *testing.T) {
	g, w := shardedPair(t, func(cfg *Config) { cfg.PartImpl = PartNative })
	const parts, partBytes = 4, 4096
	var last sim.Time
	w.Launch("part", func(c *Comm, p *sim.Proc) {
		if c.Rank() == 0 {
			pr := c.PsendInit(p, 1, 7, parts, partBytes)
			pr.Start(p)
			for i := 0; i < parts; i++ {
				pr.Pready(p, i)
			}
			pr.Wait(p)
		} else {
			pr := c.PrecvInit(p, 0, 7, parts, partBytes)
			pr.Start(p)
			pr.Wait(p)
			last = pr.LastArriveAt()
		}
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if last <= 0 {
		t.Fatalf("LastArriveAt = %v, want > 0", last)
	}
}

func TestShardedWorldValidation(t *testing.T) {
	cfg := DefaultConfig(2)

	g2 := sim.NewShardGroup(nil, 2, cfg.Net.Latency*10)
	if _, err := NewShardedWorld(g2, cfg, func(rank int) int { return rank }); err == nil ||
		!strings.Contains(err.Error(), "lookahead") {
		t.Fatal("oversized lookahead accepted")
	}

	g3 := sim.NewShardGroup(nil, 2, cfg.Net.Latency)
	if _, err := NewShardedWorld(g3, cfg, func(rank int) int { return rank + 5 }); err == nil {
		t.Fatal("out-of-range shard mapping accepted")
	}

	// Single-shard groups accept everything a sequential world does.
	g4 := sim.NewShardGroup(nil, 1, 0)
	if _, err := NewShardedWorld(g4, cfg, func(int) int { return 0 }); err != nil {
		t.Fatalf("single-shard world rejected: %v", err)
	}
}
