package mpi

import (
	"fmt"
	"testing"

	"partmb/internal/sim"
)

// runPBcast broadcasts parts partitions from root across n ranks, the root
// readying partitions at the given stagger, and returns per-rank arrival
// times of the last partition.
func runPBcast(t *testing.T, impl PartImpl, n, root, parts int, partBytes int64, stagger sim.Duration) map[int][]sim.Time {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(n)
	cfg.PartImpl = impl
	w := NewWorld(s, cfg)
	arrivals := make(map[int][]sim.Time)
	for id := 0; id < n; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pb := c.PBcastInit(p, root, parts, partBytes)
			c.Barrier(p)
			pb.Start(p)
			if pb.Root() {
				for i := 0; i < parts; i++ {
					p.Sleep(stagger)
					pb.Pready(p, i)
				}
			}
			pb.Wait(p)
			if !pb.Root() {
				times := make([]sim.Time, parts)
				for i := range times {
					times[i] = pb.ArrivedAt(i)
				}
				arrivals[id] = times
			}
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%v pbcast: %v", impl, err)
	}
	return arrivals
}

func TestPBcastReachesAllRanks(t *testing.T) {
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			arrivals := runPBcast(t, impl, 7, 0, 4, 8<<10, 100*sim.Microsecond)
			if len(arrivals) != 6 {
				t.Fatalf("got arrivals from %d ranks, want 6", len(arrivals))
			}
			for id, times := range arrivals {
				for i, at := range times {
					if at <= 0 {
						t.Fatalf("rank %d partition %d never arrived", id, i)
					}
				}
			}
		})
	}
}

func TestPBcastNonZeroRoot(t *testing.T) {
	arrivals := runPBcast(t, PartNative, 5, 3, 2, 4<<10, 50*sim.Microsecond)
	if len(arrivals) != 4 {
		t.Fatalf("arrivals from %d ranks, want 4", len(arrivals))
	}
	if _, ok := arrivals[3]; ok {
		t.Fatal("root recorded arrivals")
	}
}

func TestPBcastPipelinesPartitions(t *testing.T) {
	// With strongly staggered Preadys, early partitions must reach the
	// deepest rank long before the root readies the last partition: the
	// point of a *partitioned* broadcast.
	const parts = 8
	stagger := sim.Millisecond
	arrivals := runPBcast(t, PartNative, 8, 0, parts, 16<<10, stagger)
	deepest := 7 // vrank 7 is at depth 3 of the binomial tree
	times := arrivals[deepest]
	lastReadyAt := sim.Duration(parts) * stagger // approx: root readies part i at ~(i+1)*stagger
	if sim.Duration(times[0]) >= lastReadyAt {
		t.Fatalf("first partition arrived at %v, after the root's last Pready (~%v): no pipelining",
			sim.Duration(times[0]), lastReadyAt)
	}
	for i := 1; i < parts; i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("partition %d arrived at %v, not after partition %d at %v",
				i, times[i], i-1, times[i-1])
		}
	}
}

func TestPBcastEpochRestart(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(4))
	const epochs = 3
	for id := 0; id < 4; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pb := c.PBcastInit(p, 0, 2, 1<<10)
			c.Barrier(p)
			for e := 0; e < epochs; e++ {
				pb.Start(p)
				if pb.Root() {
					pb.Pready(p, 0)
					pb.Pready(p, 1)
				}
				pb.Wait(p)
			}
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPBcastMisuse(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	for id := 0; id < 2; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pb := c.PBcastInit(p, 0, 2, 64)
			c.Barrier(p)
			pb.Start(p)
			if pb.Root() {
				mustPanic(t, "Start on active PBcast", func() { pb.Start(p) })
				pb.Pready(p, 0)
				pb.Pready(p, 1)
			} else {
				mustPanic(t, "PBcast.Pready on non-root rank", func() { pb.Pready(p, 0) })
			}
			pb.Wait(p)
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitPartitionBlocksUntilArrival(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	var waitedUntil sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 2, 1<<10)
		c.Barrier(p)
		pr.Start(p)
		pr.Pready(p, 0)
		p.Sleep(5 * sim.Millisecond)
		pr.Pready(p, 1)
		pr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 2, 1<<10)
		c.Barrier(p)
		pr.Start(p)
		pr.WaitPartition(p, 1)
		waitedUntil = p.Now()
		pr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if waitedUntil < sim.Time(5*sim.Millisecond) {
		t.Fatalf("WaitPartition returned at %v, before the partition could have been readied", waitedUntil)
	}
}

func TestWaitPartitionMisuse(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 2, 64)
		mustPanic(t, "WaitPartition on send request", func() { pr.WaitPartition(p, 0) })
	})
	_ = s.Run()
}
