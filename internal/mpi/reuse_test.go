package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/netsim"
	"partmb/internal/sim"
)

// A world kept on a sim.Arena: the next NewWorld on the arena is built from
// it, and nothing it carries over changes a simulation.

// program is an SPMD body for a world of ranks ranks under tweak. Its
// transcript lists what the ranks observed, times included.
type program struct {
	name  string
	ranks int
	tweak func(*Config)
	body  func(log func(format string, args ...any)) func(c *Comm, p *sim.Proc)
}

// programs exercise every part of a world that is kept: matchers (unexpected
// and posted leftovers), free requests, records, persistent and
// partitioned requests of both implementations and unequal partitionings,
// the native registry (an init left unpaired), split communicators and
// endpoints.
var programs = []program{
	{"p2p", 4, func(c *Config) { c.ThreadMode = Multiple }, func(log func(string, ...any)) func(*Comm, *sim.Proc) {
		return func(c *Comm, p *sim.Proc) {
			me, peer := c.Rank(), c.Rank()^1
			c.SetPlacement(cluster.Place(c.world.cfg.Machine, 2))
			for i := 0; i < 6; i++ {
				size := int64(512 << (3 * (i % 3))) // eager, eager, rendezvous
				rr := c.Endpoint(i%2).Irecv(p, peer, i)
				sr := c.state().takeReq()
				sr.data = bytes.Repeat([]byte{byte(me)}, int(size))
				c.isendOn(p, sr, 1-i%2, peer, i, ctxP2P, size) // endpoint 1-i%2, carrying data
				WaitAll(p, rr, sr)
				log("rank %d msg %d size %d byte %d done %v/%v", me, i, rr.size, rr.data[0], rr.CompletedAt(), sr.CompletedAt())
				FreeAll(rr, sr)
			}
			c.IsendBytes(p, peer, 99, 64)  // never received: left unexpected
			c.Irecv(p, peer, 98)           // never matched: left posted
			c.SendBytes(p, (me+2)%4, 7, 8) // left unexpected on the far side
			log("rank %d ends at %v", me, p.Now())
		}
	}},
	{"mpipcl", 2, nil, func(log func(string, ...any)) func(*Comm, *sim.Proc) {
		return func(c *Comm, p *sim.Proc) {
			for _, parts := range []int{16, 3} {
				var pr *PRequest
				if c.Rank() == 0 {
					c.SetPlacement(cluster.Place(c.world.cfg.Machine, parts))
					pr = c.PsendInit(p, 1, parts, parts, 4096)
				} else {
					pr = c.PrecvInit(p, 0, parts, parts, 4096)
				}
				c.Barrier(p)
				for e := 0; e < 3; e++ {
					pr.Start(p)
					if c.Rank() == 0 {
						for i := parts - 1; i >= 0; i-- {
							p.Sleep(sim.Duration(100 * (i + e)))
							pr.Pready(p, i)
						}
						pr.Wait(p)
						log("send %d parts epoch %d: %v", parts, e, pr.readyTimes)
					} else {
						pr.Wait(p)
						log("recv %d parts epoch %d: %v", parts, e, pr.arrivedTimes)
					}
				}
			}
		}
	}},
	{"native", 3, func(c *Config) { c.PartImpl = PartNative }, func(log func(string, ...any)) func(*Comm, *sim.Proc) {
		return func(c *Comm, p *sim.Proc) {
			var pr *PRequest
			buf := make([]byte, 4096)
			switch c.Rank() {
			case 0:
				for i := range buf {
					buf[i] = byte(i)
				}
				pr = c.PsendInit(p, 1, 5, 8, 512)
				pr.BindSendBuffer(buf)
			case 1:
				pr = c.PrecvInit(p, 0, 5, 4, 1024)
				pr.BindRecvBuffer(buf)
			case 2:
				c.PrecvInit(p, 0, 6, 2, 64) // its sender never comes
			}
			c.Barrier(p)
			for e := 0; e < 2 && pr != nil; e++ {
				pr.Start(p)
				if c.Rank() == 0 {
					pr.preadyRange(p, 0, 8)
				}
				pr.Wait(p)
				log("rank %d epoch %d ends at %v, last byte %d", c.Rank(), e, p.Now(), buf[len(buf)-1])
			}
		}
	}},
	{"collectives", 4, func(c *Config) { c.ThreadMode = Serialized }, func(log func(string, ...any)) func(*Comm, *sim.Proc) {
		return func(c *Comm, p *sim.Proc) {
			sr := c.SendInitBytes(p, (c.Rank()+1)%4, 3, 1<<16)
			rr := c.RecvInit(p, (c.Rank()+3)%4, 3)
			for i := 0; i < 2; i++ {
				rr.Start(p)
				sr.Start(p)
				WaitAll(p, rr, sr)
				log("rank %d ring %d at %v", c.Rank(), i, rr.CompletedAt())
			}
			c.Allreduce(p, 4096)
			c.Barrier(p)
			log("rank %d at %v", c.Rank(), p.Now())
		}
	}},
}

// run runs the program on a world on a scheduler from a, returning the world
// and the transcript.
func (pg program) run(t *testing.T, a *sim.Arena) (*World, []string) {
	t.Helper()
	var out []string
	s := a.New()
	cfg := DefaultConfig(pg.ranks)
	if pg.tweak != nil {
		pg.tweak(&cfg)
	}
	w := NewWorld(s, cfg)
	w.Launch(pg.name, pg.body(func(f string, args ...any) { out = append(out, fmt.Sprintf(f, args...)) }))
	if err := s.Run(); err != nil {
		t.Fatalf("%s: %v", pg.name, err)
	}
	return w, out
}

func TestKeptWorldRunsLikeANewOne(t *testing.T) {
	want := map[string][]string{}
	for _, pg := range programs {
		_, want[pg.name] = pg.run(t, nil)
	}
	var a sim.Arena
	defer a.Close()
	var last *World
	order := rand.New(rand.NewSource(32)).Perm(4 * len(programs))
	for k, i := range order {
		pg := programs[i%len(programs)]
		w, got := pg.run(t, &a)
		if !reflect.DeepEqual(got, want[pg.name]) {
			t.Fatalf("run %d, %s after another program on the arena:\n got %q\nwant %q", k, pg.name, got, want[pg.name])
		}
		if k > 0 && w != last {
			t.Fatalf("run %d, %s: a new world, not the one the arena kept", k, pg.name)
		}
		last = w
	}
}

// The world is reset in place: rank states and handles are reused by index,
// cleared of whatever the last program left in them, those beyond a smaller
// world's size wait for a larger one, and a world whose simulation died — or
// that never ran — is not kept.
func TestKeptWorldReusesItsParts(t *testing.T) {
	var a sim.Arena
	defer a.Close()
	for _, pg := range programs {
		w, _ := pg.run(t, &a)
		ranks, comms := append([]*rankState(nil), w.ranks...), append([]*Comm(nil), w.comms...)
		records := len(w.records[0].free)

		s := a.New()
		small := NewWorld(s, DefaultConfig(2))
		if small != w || small.ranks[1] != ranks[1] || small.comms[0] != comms[0] {
			t.Fatalf("after %s: a smaller world did not reuse the kept world's rank states and handles", pg.name)
		}
		if got := len(small.records[0].free); got != records {
			t.Fatalf("after %s: %d records handed on, %d kept", pg.name, got, records)
		}
		for _, st := range small.ranks {
			m := st.matcher
			if len(m.posted.slots)+len(m.unexpected.slots)+len(m.posted.count)+len(m.unexpected.count)+len(st.partRegistry) != 0 ||
				st.nic.Stats() != (netsim.Stats{}) || st.preqs.used+st.persist.used != 0 {
				t.Fatalf("after %s: rank %d starts with %d posted and %d unexpected messages, %d registry keys, NIC stats %+v, %d+%d inits",
					pg.name, st.id, len(m.posted.slots), len(m.unexpected.slots), len(st.partRegistry), st.nic.Stats(), st.preqs.used, st.persist.used)
			}
		}
		if c := small.comms[0]; c.world != small || c.placement != small.single || c.barrierGen != 0 || len(c.endpoints) != len(comms[0].endpoints) {
			t.Fatalf("after %s: rank 0's handle is not reset: %+v", pg.name, c)
		}
		// A library lock the last program left held would park this probe
		// for good, and Run would report the deadlock.
		s.Spawn("lock probe", func(p *sim.Proc) {
			for _, st := range small.ranks {
				st.lock.Lock(p)
				st.lock.Unlock(p)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if w, _ := pg.run(t, &a); w != small || w.ranks[len(ranks)-1] != ranks[len(ranks)-1] || w.Comm(len(comms)-1) != comms[len(comms)-1] {
			t.Fatalf("after %s: a larger world did not get back the rank states a smaller one left", pg.name)
		}
	}

	pg := programs[0]
	for name, end := range map[string]func(s *sim.Scheduler){
		"deadlock": func(s *sim.Scheduler) {
			if err := s.Run(); !errors.As(err, new(*sim.DeadlockError)) {
				t.Fatalf("Run = %v, want a deadlock", err)
			}
		},
		"never run": func(*sim.Scheduler) {},
	} {
		s := a.New()
		dead := NewWorld(s, DefaultConfig(2))
		dead.Launch("stuck", func(c *Comm, p *sim.Proc) { c.Recv(p, c.Rank()^1, 0) })
		end(s)
		if next, _ := pg.run(t, &a); next == dead {
			t.Fatalf("%s: the next world was built from one whose simulation did not finish", name)
		}
	}
}

// The second run of a program on an arena allocates only the scheduler, the
// world's one-thread placement and its default topology (an interface
// value): ranks, matchers, requests, records and
// partitioned and persistent requests all come back. The program spawns its
// procs under constant names with closures made once, so nothing else of
// its own allocates either.
func TestKeptWorldAllocs(t *testing.T) {
	cfg := DefaultConfig(2)
	var w *World
	rank0 := func(p *sim.Proc) { keptProgram(w.Comm(0), p) }
	rank1 := func(p *sim.Proc) { keptProgram(w.Comm(1), p) }
	run := func(a *sim.Arena) {
		s := a.New()
		w = NewWorld(s, cfg)
		s.Spawn("rank0", rank0)
		s.Spawn("rank1", rank1)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var a sim.Arena
	defer a.Close()
	run(&a)
	// On no arena the same run costs 142.
	if got := testing.AllocsPerRun(20, func() { run(&a) }); got > 3 {
		t.Errorf("a kept world's run: %v allocations, pinned at 3", got)
	}
}

// The sharded twin of TestKeptWorldAllocs: four ranks on a two-shard group,
// every pair split across the shards. The group's second run on an arena
// takes the world and its records from shard 0's slot and each shard's
// runners, events, queue and outbox from its own, so what it allocates is
// the group's own: the group, its two schedulers, its per-run window
// scratch, channels and shard goroutines, beside the world's placement and
// topology. That holds with one pair sending each way and with every
// partitioned sender on shard 0, where the records all end up on shard 1's
// list and the next world deals them back.
func TestKeptShardedWorldAllocs(t *testing.T) {
	for _, c := range []struct {
		name    string
		shardOf func(rank int) int
	}{
		{"one sender per shard", func(rank int) int { return (rank ^ rank>>1) & 1 }},
		{"senders on shard 0", func(rank int) int { return rank % 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(4)
			var w *World
			var ranks [4]func(p *sim.Proc)
			for r := range ranks {
				ranks[r] = func(p *sim.Proc) { keptProgram(w.Comm(r), p) }
			}
			run := func(a *sim.Arena) {
				g := sim.NewShardGroup(a, 2, cfg.Net.Latency)
				var err error
				if w, err = NewShardedWorld(g, cfg, c.shardOf); err != nil {
					t.Fatal(err)
				}
				for r, f := range ranks {
					g.Shard(c.shardOf(r)).Spawn("rank", f)
				}
				if err := g.Run(); err != nil {
					t.Fatal(err)
				}
			}
			var a sim.Arena
			defer a.Close()
			run(&a)
			// On no arena the same run costs 303.
			if got := testing.AllocsPerRun(20, func() { run(&a) }); got > 22 {
				t.Errorf("a kept sharded world's run: %v allocations, pinned at 22", got)
			}
		})
	}
}

// keptProgram is the rank body of the alloc pins: partitioned, persistent
// and freed nonblocking traffic with the partner rank c.Rank()^1.
func keptProgram(c *Comm, p *sim.Proc) {
	peer := c.Rank() ^ 1
	var pr *PRequest
	if c.Rank()%2 == 0 {
		pr = c.PsendInit(p, peer, 0, 16, 4096)
	} else {
		pr = c.PrecvInit(p, peer, 0, 16, 4096)
	}
	single := c.SendInitBytes(p, peer, 1, 1<<20)
	recv := c.RecvInit(p, peer, 1)
	for e := 0; e < 2; e++ {
		pr.Start(p)
		if c.Rank()%2 == 0 {
			pr.preadyRange(p, 0, 16)
		}
		pr.Wait(p)
		recv.Start(p)
		single.Start(p)
		WaitAll(p, recv, single)
		rr, sr := c.Irecv(p, peer, 2), c.IsendBytes(p, peer, 2, 256)
		WaitAll(p, rr, sr)
		FreeAll(rr, sr)
	}
}
