package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/sim"
)

// Ownership rules of the recycled message records (inbound) and of the
// persistent inner requests of an MPIPCL PRequest.

// A message parked in the unexpected queue is not released until a receive
// takes it, however many records are recycled around it in the meantime.
func TestUnexpectedSurvivesRecycling(t *testing.T) {
	const rounds = 5000 // 10,000 messages each way
	small := []byte("parked")
	large := make([]byte, 1<<20) // rendezvous: its RTS is what gets parked
	for i := range large {
		large[i] = byte(i * 31)
	}
	// Round i moves 1+i%3 messages one way and 3-i%3 back, so each rank in
	// turn sends more than it has just received and drains its free list to
	// the bottom — where a parked record would be, had it been released.
	exchange := func(c *Comm, p *sim.Proc, peer, round, sends, recvs int) {
		for k := 0; k < sends; k++ {
			c.SendBytes(p, peer, 1, int64(1+round%512))
		}
		for k := 0; k < recvs; k++ {
			r := c.Irecv(p, peer, 1)
			r.Wait(p)
			if n := r.size; n != int64(1+round%512) {
				t.Fatalf("round %d: size %d, want %d", round, n, 1+round%512)
			}
			FreeAll(r)
		}
	}
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.sendData(p, 1, 99, ctxP2P, small)
			big := c.isendData(p, 1, 98, ctxP2P, large)
			for i := 0; i < rounds; i++ {
				exchange(c, p, 1, i, 1+i%3, 3-i%3)
			}
			big.Wait(p)
		case 1:
			p.Sleep(sim.Millisecond) // both are parked before any receive is posted
			for i := 0; i < rounds; i++ {
				exchange(c, p, 0, i, 3-i%3, 1+i%3)
			}
			for _, want := range []struct {
				tag  int
				data []byte
			}{{99, small}, {98, large}} {
				ps := c.probe(p, 0, want.tag)
				if ps.Source != 0 || ps.Tag != want.tag || ps.Size != int64(len(want.data)) {
					t.Errorf("probe(tag %d) = %+v, want source 0, size %d", want.tag, ps, len(want.data))
				}
				r := c.Irecv(p, 0, want.tag)
				r.Wait(p)
				if r.size != int64(len(want.data)) || !bytes.Equal(r.data, want.data) {
					t.Errorf("Recv(tag %d): size %d, payload intact %v", want.tag, r.size, bytes.Equal(r.data, want.data))
				}
			}
		}
	})
}

// Ranks on one scheduler share its record list, so one-directional traffic
// recycles: the receiver gives back what the sender takes. Across shards
// records still flow one way only, and the receiving shard's list stops at
// its cap.
func TestFreeListCappedUnderOneWayTraffic(t *testing.T) {
	const msgs = 10000
	// oneWay sends msgs messages from rank 0 to rank 1, calling before ahead
	// of each send and after behind each receive.
	oneWay := func(before, after func()) func(c *Comm, p *sim.Proc) {
		return func(c *Comm, p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				if c.Rank() == 0 {
					before()
					c.SendBytes(p, 1, 0, 64)
				} else {
					c.Recv(p, 0, 0)
					after()
				}
			}
		}
	}

	t.Run("one scheduler", func(t *testing.T) {
		var begun, received, peak int
		// A send takes its record while at most this many messages are in
		// flight: begun, and not yet received.
		inFlight := func() { begun++; peak = max(peak, begun-received) }
		w := runWorld(t, 2, nil, oneWay(inFlight, func() { received++ }))
		// Every record is back on the list, and each was allocated when the
		// list was empty, that is when all earlier ones were in flight.
		if got := len(w.ranks[0].records.free); received != msgs || got == 0 || got > peak {
			t.Errorf("%d of %d messages received; %d records allocated, want 1 to %d (the most in flight at once)",
				received, msgs, got, peak)
		}
		if w.ranks[0].records != w.ranks[1].records {
			t.Error("two ranks on one scheduler have separate record lists")
		}
	})

	t.Run("two shards", func(t *testing.T) {
		received := 0 // written on the receiving shard only
		g, w := shardedPair(t, nil)
		w.Launch("oneway", oneWay(func() {}, func() { received++ }))
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		if got, want := len(w.ranks[1].records.free), w.ranks[1].records.max; received != msgs || got != want || want != recordsPerRank {
			t.Errorf("receiving shard holds %d free records after %d of %d receives, want its cap %d = %d x 1 rank",
				got, received, msgs, want, recordsPerRank)
		}
		if got := len(w.ranks[0].records.free); got != 0 {
			t.Errorf("sending shard holds %d free records though nothing was ever sent to it", got)
		}
	})
}

// Blocking calls — eager and rendezvous ping-pongs, a rendezvous send,
// Sendrecv and Barrier — take their requests off the rank's free list and give them back,
// here from four threads per rank under MPI_THREAD_MULTIPLE, and the
// simulation is the one fresh requests produced: the end times are literals
// recorded on the commit before blocking calls reused their requests, and
// recorded again for this program on the commit before the runtime lost its
// synchronous-mode send (thread 2 then sent 64 bytes with Ssend).
func TestBlockingCallsReuseRequests(t *testing.T) {
	const (
		ranks   = 4
		threads = 4
		rounds  = 200
	)
	var ends [ranks]sim.Time
	w := runWorld(t, ranks, func(cfg *Config) { cfg.ThreadMode = Multiple }, func(c *Comm, p *sim.Proc) {
		c.SetPlacement(cluster.Place(c.world.cfg.Machine, threads))
		s := p.Scheduler()
		peer := c.Rank() ^ 1
		first := c.Rank()%2 == 0
		for r := 0; r < rounds; r++ {
			var wg sim.WaitGroup
			wg.Add(s, threads)
			for th := 0; th < threads; th++ {
				ep := c.Endpoint(th)
				s.Spawn("thread", func(p *sim.Proc) {
					defer wg.Done(s)
					switch th {
					case 0, 1: // eager, then rendezvous ping-pong
						size := int64(1024) << (10 * th)
						if first {
							ep.SendBytes(p, peer, th, size)
							ep.Recv(p, peer, th)
						} else {
							ep.Recv(p, peer, th)
							ep.SendBytes(p, peer, th, size)
						}
					case 2:
						if first {
							c.SendBytes(p, peer, th, 32<<10)
						} else {
							c.Recv(p, peer, th)
						}
					case 3:
						c.sendrecv(p, peer, th, 4096, peer, th)
					}
				})
			}
			wg.Wait(p)
			c.Barrier(p)
		}
		ends[c.Rank()] = p.Now()
	})
	if want := [ranks]sim.Time{38128079, 38128799, 38128079, 38128799}; ends != want {
		t.Errorf("ranks end at %v, want %v", ends, want)
	}
	for i, st := range w.ranks {
		// At most every thread in one call at once, Sendrecv holding two.
		if n := len(st.freeReqs); n == 0 || n > threads+1 {
			t.Errorf("rank %d: %d requests on its free list after %d rounds, want 1 to %d", i, n, rounds, threads+1)
		}
	}
}

// A request on a free list belongs to no call: completing it is a bug.
func TestCompletingPooledRequestPanics(t *testing.T) {
	w := runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		if c.Rank() == 0 {
			c.SendBytes(p, 1, 0, 8)
		} else {
			c.Recv(p, 0, 0)
		}
	})
	for i, st := range w.ranks {
		if len(st.freeReqs) != 1 {
			t.Fatalf("rank %d: %d requests on its free list after one blocking call, want 1", i, len(st.freeReqs))
		}
		r := st.freeReqs[0]
		r.comm = w.Comm(i) // so that only the pooled mark can stop it
		mustPanic(t, "completing a request on a free list", func() { r.completeAt(w.s.Now()) })
		mustPanic(t, "completing a request on a free list", func() { r.Fire(0) })
	}
}

// MPIPCL epochs restart the inner requests made by the first epoch, and the
// simulation they produce is the one fresh requests produced: the end times
// are literals recorded on the commit before inner requests were kept.
func TestEpochsRestartInnerRequests(t *testing.T) {
	const (
		epochs = 1000
		parts  = 8
	)
	for _, tc := range []struct {
		partBytes int64
		end       sim.Time
	}{
		{4096, 7679365},      // eager partitions
		{64 << 10, 53954350}, // rendezvous partitions
	} {
		t.Run(fmt.Sprint(tc.partBytes), func(t *testing.T) {
			var first [2][]*Request
			w := runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
				var pr *PRequest
				if c.Rank() == 0 {
					pr = c.PsendInit(p, 1, 0, parts, tc.partBytes)
				} else {
					pr = c.PrecvInit(p, 0, 0, parts, tc.partBytes)
				}
				for e := 0; e < epochs; e++ {
					pr.Start(p)
					if c.Rank() == 0 {
						pr.preadyRange(p, 0, parts)
					}
					pr.Wait(p)
					if e == 0 {
						first[c.Rank()] = append([]*Request(nil), pr.inner...)
					}
				}
				for i, r := range pr.inner {
					if r == nil || r != first[c.Rank()][i] {
						t.Errorf("rank %d: inner[%d] is %p after %d epochs, %p after the first", c.Rank(), i, r, epochs, first[c.Rank()][i])
					}
				}
			})
			if got := w.s.Now(); got != tc.end {
				t.Errorf("%d epochs end at %d ns, want %d", epochs, got, tc.end)
			}
		})
	}
}

// A request is the handler of its own completion event, so it can have one
// pending at most.
func TestSecondPendingCompletionPanics(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		r := &Request{comm: c, kind: sendReq}
		r.completeAt(p.Now().Add(sim.Microsecond))
		mustPanic(t, "already has a completion pending", func() { r.completeAt(p.Now().Add(sim.Microsecond)) })

		pr := c.PsendInit(p, 1, 0, 2, 1024)
		pr.Start(p)
		pr.Pready(p, 0) // partition 0's send completes a little later
		mustPanic(t, "partition 0 restarted with a completion pending", func() { pr.innerRequest(0) })
		pr.innerRequest(1) // never used yet: fine
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// Iprobe reports the envelope it found, even if another thread of the rank
// receives that message — and its record is recycled — while the probe is
// still paying its search time. (Below Multiple nothing but the application's
// promise keeps two calls of one rank apart.)
func TestIprobeEnvelopeOutlivesRecord(t *testing.T) {
	s := sim.New()
	cfg := DefaultConfig(2)
	cfg.MatchPerElement = sim.Microsecond
	w := NewWorld(s, cfg)
	s.Spawn("sender", func(p *sim.Proc) {
		w.Comm(0).SendBytes(p, 1, 4, 8)
		w.Comm(0).SendBytes(p, 1, 5, 7)
	})
	// Both messages are parked by 1 ms. The probe finds tag 5 second in the
	// queue and sleeps 2 µs; meanwhile one thread takes tag 4 and another,
	// now scanning a single entry, takes tag 5; each releases its record 1 µs on.
	s.Spawn("prober", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		ps, ok := w.Comm(1).iprobe(p, 0, 5)
		if want := (probeStatus{Source: 0, Tag: 5, Size: 7}); !ok || ps != want {
			t.Errorf("iprobe = %+v, %v, want %+v", ps, ok, want)
		}
		if got := len(w.ranks[1].records.free); got != 2 {
			t.Errorf("%d records released while the probe slept, want both", got)
		}
	})
	for i, tag := range []int{4, 5} {
		delay := sim.Millisecond + sim.Duration(i+1)*100*sim.Nanosecond
		s.Spawn(fmt.Sprint("receiver", tag), func(p *sim.Proc) {
			p.Sleep(delay)
			w.Comm(1).Recv(p, 0, tag)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
