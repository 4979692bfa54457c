package mpi

import (
	"fmt"
	"testing"

	"partmb/internal/sim"
)

func TestSplitEvenOdd(t *testing.T) {
	const ranks = 6
	sizes := make([]int, ranks)
	locals := make([]int, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, c.Rank()%2, c.Rank())
		sizes[c.Rank()] = sub.size()
		locals[c.Rank()] = sub.Rank()
	})
	for r := 0; r < ranks; r++ {
		if sizes[r] != 3 {
			t.Fatalf("rank %d subcomm size = %d, want 3", r, sizes[r])
		}
		if want := r / 2; locals[r] != want {
			t.Fatalf("rank %d local rank = %d, want %d", r, locals[r], want)
		}
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	const ranks = 4
	locals := make([]int, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		// Reverse order: higher old rank gets lower key.
		sub := c.Split(p, 0, ranks-c.Rank())
		locals[c.Rank()] = sub.Rank()
	})
	for r := 0; r < ranks; r++ {
		if want := ranks - 1 - r; locals[r] != want {
			t.Fatalf("rank %d local = %d, want %d (reversed)", r, locals[r], want)
		}
	}
}

func TestSplitUndefinedGetsNil(t *testing.T) {
	runWorld(t, 4, nil, func(c *Comm, p *sim.Proc) {
		color := 0
		if c.Rank() == 3 {
			color = Undefined
		}
		sub := c.Split(p, color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("Undefined color received a communicator")
			}
		} else if sub == nil || sub.size() != 3 {
			t.Errorf("rank %d: bad subcomm %v", c.Rank(), sub)
		}
	})
}

func TestSplitPointToPointWithinSubcomm(t *testing.T) {
	// Ring exchange inside each half, using local ranks.
	const ranks = 6
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, c.Rank()/3, c.Rank())
		n := sub.size()
		right := (sub.Rank() + 1) % n
		left := (sub.Rank() - 1 + n) % n
		payload := []byte(fmt.Sprintf("w%d", c.Rank()))
		data := sub.sendrecvData(p, right, 0, payload, left, 0)
		// The left neighbour's world rank is within the same half.
		wantWorld := (c.Rank()/3)*3 + (sub.Rank()-1+n)%n
		if string(data) != fmt.Sprintf("w%d", wantWorld) {
			t.Errorf("rank %d received %q, want w%d", c.Rank(), data, wantWorld)
		}
	})
}

func TestSplitTagIsolation(t *testing.T) {
	// Same tags on sibling subcomms must not cross-match: rank pairs (0,1)
	// and (2,3) each exchange on tag 7 within their own subcomm while
	// cross-pair world traffic would corrupt payloads if contexts leaked.
	runWorld(t, 4, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, c.Rank()/2, c.Rank())
		me := sub.Rank()
		other := 1 - me
		payload := []byte{byte(100 + c.Rank())}
		data := sub.sendrecvData(p, other, 7, payload, other, 7)
		wantWorld := (c.Rank()/2)*2 + other
		if data[0] != byte(100+wantWorld) {
			t.Errorf("rank %d got payload from world rank %d, want %d", c.Rank(), data[0]-100, wantWorld)
		}
	})
}

func TestSplitCollectivesWithinSubcomm(t *testing.T) {
	const ranks = 8
	var releases [ranks]sim.Time
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, c.Rank()%2, c.Rank())
		// Skew arrival, then barrier within the subcomm only.
		p.Sleep(sim.Duration(c.Rank()) * sim.Millisecond)
		sub.Barrier(p)
		releases[c.Rank()] = p.Now()
		sub.Bcast(p, 0, 4096)
		sub.Allreduce(p, 64)
	})
	// Odd subcomm's slowest member is world rank 7 (sleep 7ms): all odd
	// ranks release at >= 7ms; even subcomm's slowest is 6ms.
	for r := 0; r < ranks; r++ {
		slowest := sim.Time(6 * sim.Millisecond)
		if r%2 == 1 {
			slowest = sim.Time(7 * sim.Millisecond)
		}
		if releases[r] < slowest {
			t.Fatalf("rank %d left subcomm barrier at %v, before its slowest member %v", r, releases[r], slowest)
		}
	}
}

func TestSplitPartitionedWithinSubcomm(t *testing.T) {
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			runWorld(t, 4, func(cfg *Config) { cfg.PartImpl = impl }, func(c *Comm, p *sim.Proc) {
				sub := c.Split(p, c.Rank()/2, c.Rank())
				switch sub.Rank() {
				case 0:
					pr := sub.PsendInit(p, 1, 3, 4, 1024)
					sub.Barrier(p)
					pr.Start(p)
					for i := 0; i < 4; i++ {
						pr.Pready(p, i)
					}
					pr.Wait(p)
					sub.Barrier(p)
				case 1:
					pr := sub.PrecvInit(p, 0, 3, 4, 1024)
					sub.Barrier(p)
					pr.Start(p)
					pr.Wait(p)
					if got := pr.LastArriveAt(); got <= 0 {
						t.Errorf("no arrivals in subcomm partitioned transfer")
					}
					sub.Barrier(p)
				}
			})
		})
	}
}

// Local rank 0 of the odd half is world rank 1: a receive from local 0
// that translated to world rank 0 would wait for a message on the odd
// half's context that never comes, and the world would deadlock.
func TestSplitSourceTranslation(t *testing.T) {
	runWorld(t, 4, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, c.Rank()%2, c.Rank())
		switch sub.Rank() {
		case 0:
			sub.SendBytes(p, 1, 0, 64+int64(c.Rank()))
		case 1:
			r := sub.Irecv(p, 0, 0)
			r.Wait(p)
			from := c.Rank() % 2
			if r.peer != from || r.size != 64+int64(from) {
				t.Errorf("world rank %d: received %d bytes from world rank %d, want %d from %d", c.Rank(), r.size, r.peer, 64+from, from)
			}
		}
	})
}

func TestNestedSplit(t *testing.T) {
	const ranks = 8
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		half := c.Split(p, c.Rank()/4, c.Rank())          // two halves of 4
		quad := half.Split(p, half.Rank()/2, half.Rank()) // pairs
		if quad.size() != 2 {
			t.Errorf("nested split size = %d, want 2", quad.size())
		}
		other := 1 - quad.Rank()
		quad.SendrecvBytes(p, other, 0, 1, other, 0)
	})
}

func TestDupIsolatesTraffic(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		dup := c.Split(p, 0, c.Rank()) // MPI_Comm_dup: same group, fresh contexts
		if dup.size() != c.size() || dup.Rank() != c.Rank() {
			t.Fatalf("dup group differs: %d/%d", dup.Rank(), dup.size())
		}
		switch c.Rank() {
		case 0:
			// Same tag on both communicators; payloads must route by comm.
			c.sendData(p, 1, 5, c.ctxP2P(), []byte("orig"))
			dup.sendData(p, 1, 5, dup.ctxP2P(), []byte("dup"))
		case 1:
			// Receive dup's first: context separation must deliver "dup"
			// even though "orig" arrived earlier on the same tag.
			dupData := dup.recvData(p, 0, 5, dup.ctxP2P())
			origData := c.recvData(p, 0, 5, c.ctxP2P())
			if string(dupData) != "dup" || string(origData) != "orig" {
				t.Errorf("comm isolation broken: dup=%q orig=%q", dupData, origData)
			}
		}
	})
}

func TestSplitWorldRankAccessor(t *testing.T) {
	runWorld(t, 4, nil, func(c *Comm, p *sim.Proc) {
		sub := c.Split(p, 0, -c.Rank()) // reverse order via negative keys
		if sub.WorldRank() != c.Rank() {
			t.Errorf("WorldRank = %d, want %d", sub.WorldRank(), c.Rank())
		}
	})
}
