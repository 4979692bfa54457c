package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/sim"
)

// runWorld builds a 'ranks'-rank world with the default config (optionally
// tweaked), runs body on every rank, and fails the test on deadlock.
func runWorld(t *testing.T, ranks int, tweak func(*Config), body func(c *Comm, p *sim.Proc)) *World {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(ranks)
	if tweak != nil {
		tweak(&cfg)
	}
	w := NewWorld(s, cfg)
	w.Launch("test", body)
	if err := s.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	return w
}

// isendData starts a send on context ctx that carries data. The runtime's
// point-to-point calls carry no payload, but a request moves the one it
// holds end to end, as an MPIPCL partition's inner request does; the tests
// set one to check that every protocol path delivers it intact.
func (c *Comm) isendData(p *sim.Proc, dest, tag, ctx int, data []byte) *Request {
	r := c.state().takeReq()
	r.data = data
	return c.isendOn(p, r, 0, dest, tag, ctx, int64(len(data)))
}

// sendData is the blocking form of isendData.
func (c *Comm) sendData(p *sim.Proc, dest, tag, ctx int, data []byte) {
	c.isendData(p, dest, tag, ctx, data).finish(p)
}

// sendrecv is the combined exchange of MPI_Sendrecv: both transfers
// progress concurrently, which makes the neighbour shift deadlock-free. Its
// two requests come off the rank's free list.
func (c *Comm) sendrecv(p *sim.Proc, dest, sendTag int, size int64, src, recvTag int) {
	st := c.state()
	sreq := c.isendOn(p, st.takeReq(), 0, dest, sendTag, ctxP2P, size)
	rreq := c.irecvOn(p, st.takeReq(), src, recvTag, ctxP2P)
	sreq.finish(p)
	rreq.finish(p)
}

// sendrecvData is sendrecv with data on the send side, returning the
// payload received.
func (c *Comm) sendrecvData(p *sim.Proc, dest, sendTag int, data []byte, src, recvTag int) []byte {
	sreq := c.isendData(p, dest, sendTag, ctxP2P, data)
	got := c.recvData(p, src, recvTag, ctxP2P)
	sreq.finish(p)
	return got
}

// recvData receives a message on context ctx and returns its payload.
func (c *Comm) recvData(p *sim.Proc, src, tag, ctx int) []byte {
	r := c.irecvOn(p, c.state().takeReq(), src, tag, ctx)
	r.Wait(p)
	data := r.data
	r.free()
	return data
}

func TestSendRecvPayloadIntegrity(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.sendData(p, 1, 7, ctxP2P, payload)
		case 1:
			r := c.Irecv(p, 0, 7)
			r.Wait(p)
			if !bytes.Equal(r.data, payload) {
				t.Errorf("received %q, want %q", r.data, payload)
			}
			if n := r.size; n != int64(len(payload)) {
				t.Errorf("size = %d, want %d", n, len(payload))
			}
		}
	})
}

func TestRendezvousPayloadIntegrity(t *testing.T) {
	payload := make([]byte, 1<<20) // well above the eager threshold
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.sendData(p, 1, 0, ctxP2P, payload)
		case 1:
			if !bytes.Equal(c.recvData(p, 0, 0, ctxP2P), payload) {
				t.Error("rendezvous payload corrupted")
			}
		}
	})
}

func TestSmallMessageLatency(t *testing.T) {
	// A pre-posted 1 KiB eager message should take roughly
	// call + send overhead + serialization + latency + recv overhead.
	var recvAt sim.Time
	w := runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			p.Sleep(10 * sim.Microsecond) // let the receiver pre-post
			c.SendBytes(p, 1, 0, 1024)
		case 1:
			r := c.Irecv(p, 0, 0)
			r.Wait(p)
			recvAt = r.CompletedAt()
		}
	})
	net := w.cfg.Net
	min := sim.Duration(10*sim.Microsecond) + net.SendOverhead + wireTime(net, 1024) + net.Latency + net.RecvOverhead
	got := sim.Duration(recvAt)
	if got < min || got > min+5*sim.Microsecond {
		t.Fatalf("1KiB delivery at %v, want within [%v, %v+5us]", got, min, min)
	}
}

func TestUnexpectedMessagePath(t *testing.T) {
	// Send long before the receive posts; the message must wait in the
	// unexpected queue and still deliver intact.
	payload := []byte("early bird")
	var recvAt, postAt sim.Time
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.sendData(p, 1, 3, ctxP2P, payload)
		case 1:
			p.Sleep(time100us)
			postAt = p.Now()
			r := c.Irecv(p, 0, 3)
			r.Wait(p)
			recvAt = r.CompletedAt()
			if !bytes.Equal(r.data, payload) {
				t.Error("unexpected-path payload corrupted")
			}
		}
	})
	if recvAt < postAt {
		t.Fatalf("completed %v before posted %v", recvAt, postAt)
	}
	if recvAt.Sub(postAt) > 10*sim.Microsecond {
		t.Fatalf("unexpected drain took %v, want near-immediate", recvAt.Sub(postAt))
	}
}

const time100us = 100 * sim.Microsecond

func TestRendezvousStallsUntilPosted(t *testing.T) {
	// A rendezvous send cannot complete data transfer until the receiver
	// posts; receive completion must come after the post, by at least the
	// handshake plus serialization.
	size := int64(1 << 20)
	var recvDone, postAt sim.Time
	w := runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.SendBytes(p, 1, 0, size)
		case 1:
			p.Sleep(time100us)
			postAt = p.Now()
			r := c.Irecv(p, 0, 0)
			r.Wait(p)
			recvDone = r.CompletedAt()
		}
	})
	net := w.cfg.Net
	minGap := net.Latency + wireTime(net, size) // CTS flight + data
	if recvDone.Sub(postAt) < minGap {
		t.Fatalf("rendezvous completed %v after post, want >= %v", recvDone.Sub(postAt), minGap)
	}
}

func TestEagerSendCompletesWithoutReceiver(t *testing.T) {
	// Eager (buffered) semantics: the sender's Wait returns even though no
	// receive is ever posted. The world will still drain because the
	// message parks in the unexpected queue.
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		if c.Rank() == 0 {
			c.SendBytes(p, 1, 0, 512)
		}
	})
}

func TestFIFOOrderingPerPair(t *testing.T) {
	const msgs = 20
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				c.SendBytes(p, 1, 5, int64(i))
			}
		case 1:
			for i := 0; i < msgs; i++ {
				r := c.Irecv(p, 0, 5)
				r.Wait(p)
				if r.size != int64(i) {
					t.Fatalf("message %d overtaken by %d", i, r.size)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.SendBytes(p, 1, 1, 1)
			c.SendBytes(p, 1, 2, 2)
		case 1:
			// Receive in reverse tag order: matching must be by tag, not
			// arrival order.
			r2 := c.Irecv(p, 0, 2)
			r2.Wait(p)
			r1 := c.Irecv(p, 0, 1)
			r1.Wait(p)
			if r2.size != 2 || r1.size != 1 {
				t.Errorf("tag matching broken: got sizes %d/%d", r2.size, r1.size)
			}
		}
	})
}

func TestIsendOverlapsCompute(t *testing.T) {
	// Nonblocking send of a large message: the proc keeps computing while
	// data drains; total time is max(compute, transfer), not the sum.
	size := int64(12e6) // 1ms of serialization at 12GB/s
	var senderDone sim.Time
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			r := c.IsendBytes(p, 1, 0, size)
			p.Sleep(5 * sim.Millisecond) // compute longer than the transfer
			r.Wait(p)
			senderDone = p.Now()
		case 1:
			c.Recv(p, 0, 0)
		}
	})
	if senderDone > sim.Time(6*sim.Millisecond) {
		t.Fatalf("sender finished at %v; overlap not happening", sim.Duration(senderDone))
	}
}

// test charges one MPI call overhead and reports whether r has completed,
// the analogue of MPI_Test, which the runtime leaves out because its callers
// only wait. Testing a freed request panics.
func (r *Request) test(p *sim.Proc) bool {
	if r.pooled {
		panic("mpi: Test on a freed request")
	}
	r.comm.enter(p, 0).done()
	return r.done.Done()
}

func TestTestReturnsFalseThenTrue(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			p.Sleep(time100us)
			c.SendBytes(p, 1, 0, 64)
		case 1:
			r := c.Irecv(p, 0, 0)
			if r.test(p) {
				t.Error("Test true before any send")
			}
			r.Wait(p)
			if !r.test(p) {
				t.Error("Test false after Wait")
			}
		}
	})
}

func TestWaitAllAndTestAll(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			reqs := make([]*Request, 4)
			for i := range reqs {
				reqs[i] = c.IsendBytes(p, 1, i, 128)
			}
			WaitAll(p, reqs...)
			for i, r := range reqs {
				if !r.test(p) {
					t.Errorf("request %d: Test false after WaitAll", i)
				}
			}
		case 1:
			var reqs []*Request
			for i := 0; i < 4; i++ {
				reqs = append(reqs, c.Irecv(p, 0, i))
			}
			WaitAll(p, reqs...)
		}
	})
}

func TestPersistentSendRecvEpochs(t *testing.T) {
	const epochs = 5
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			req := c.SendInitBytes(p, 1, 9, 4096)
			for e := 0; e < epochs; e++ {
				req.Start(p)
				req.Wait(p)
			}
		case 1:
			req := c.RecvInit(p, 0, 9)
			var last sim.Time
			for e := 0; e < epochs; e++ {
				req.Start(p)
				req.Wait(p)
				if req.CompletedAt() <= last && e > 0 {
					t.Errorf("epoch %d completed at %v, not after %v", e, req.CompletedAt(), last)
				}
				last = req.CompletedAt()
			}
		}
	})
}

func TestPersistentStartWhileActivePanics(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			p.Sleep(time100us)
			c.SendBytes(p, 1, 0, 16)
		case 1:
			req := c.RecvInit(p, 0, 0)
			req.Start(p)
			mustPanic(t, "Start on active persistent request", func() { req.Start(p) })
			req.Wait(p)
		}
	})
}

func TestStartOnNonPersistentPanics(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			r := c.IsendBytes(p, 1, 0, 8)
			mustPanic(t, "Start on non-persistent request", func() { r.Start(p) })
			r.Wait(p)
		case 1:
			c.Recv(p, 0, 0)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const ranks = 8
	var releases [ranks]sim.Time
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		p.Sleep(sim.Duration(c.Rank()) * sim.Millisecond)
		c.Barrier(p)
		releases[c.Rank()] = p.Now()
	})
	slowest := sim.Time(sim.Duration(ranks-1) * sim.Millisecond)
	for r, at := range releases {
		if at < slowest {
			t.Fatalf("rank %d left the barrier at %v, before the slowest arrival %v", r, at, slowest)
		}
	}
}

func TestRepeatedBarriersDoNotCrossMatch(t *testing.T) {
	const ranks = 4
	counts := make([]int, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(sim.Duration(c.Rank()*100) * sim.Nanosecond)
			c.Barrier(p)
			counts[c.Rank()]++
		}
	})
	for r, n := range counts {
		if n != 10 {
			t.Fatalf("rank %d completed %d barriers, want 10", r, n)
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	var at sim.Time
	runWorld(t, 1, nil, func(c *Comm, p *sim.Proc) {
		c.Barrier(p)
		c.Barrier(p)
		c.Bcast(p, 0, 8)
		c.reduce(p, 0, 8)
		at = p.Now()
	})
	// Alone, each collective costs one call overhead and sends nothing.
	if want := sim.Time(4 * DefaultConfig(1).CallOverhead); at != want {
		t.Fatalf("four single-rank collectives ended at %v, want %v", at, want)
	}
}

func TestBcastRootFirst(t *testing.T) {
	const ranks = 7
	var done [ranks]sim.Time
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		c.Bcast(p, 2, 1<<10)
		done[c.Rank()] = p.Now()
	})
	for r := 0; r < ranks; r++ {
		if r != 2 && done[r] <= done[2] {
			t.Fatalf("rank %d finished bcast at %v, before root at %v", r, done[r], done[2])
		}
	}
}

func TestReduceAndAllreduceComplete(t *testing.T) {
	var after [5]sim.Time
	runWorld(t, 5, nil, func(c *Comm, p *sim.Proc) {
		c.reduce(p, 0, 2048)
		if c.Rank() == 4 {
			p.Sleep(sim.Millisecond)
		}
		c.Allreduce(p, 2048)
		after[c.Rank()] = p.Now()
	})
	// Allreduce reduces to rank 0 and broadcasts back, so no rank leaves it
	// before rank 4 joins, a millisecond after its reduce.
	for r, at := range after {
		if at <= sim.Time(sim.Millisecond) {
			t.Fatalf("rank %d left Allreduce at %v, before rank 4 joined", r, at)
		}
	}
}

func TestMultipleModeLockSerializesCalls(t *testing.T) {
	// Issue many isends "simultaneously" from concurrent threads of one
	// rank; under Multiple the lock serializes and contention charges pile
	// up, so it must finish later than under Funneled (where the harness
	// guarantees non-overlap and pays no lock).
	elapsed := func(mode ThreadMode) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(2)
		cfg.ThreadMode = mode
		w := NewWorld(s, cfg)
		c0, c1 := w.Comm(0), w.Comm(1)
		c0.SetPlacement(cluster.Place(cfg.Machine, 8))
		var finish sim.Time
		var wg sim.WaitGroup
		wg.Add(s, 8)
		for th := 0; th < 8; th++ {
			th := th
			s.Spawn(fmt.Sprintf("send%d", th), func(p *sim.Proc) {
				ep := c0.Endpoint(th)
				ep.IsendBytes(p, 1, th, 256).Wait(p)
				if p.Now() > finish {
					finish = p.Now()
				}
				wg.Done(s)
			})
		}
		s.Spawn("recv", func(p *sim.Proc) {
			var reqs []*Request
			for th := 0; th < 8; th++ {
				reqs = append(reqs, c1.Irecv(p, 0, th))
			}
			WaitAll(p, reqs...)
		})
		s.Spawn("join", func(p *sim.Proc) { wg.Wait(p) })
		if err := s.Run(); err != nil {
			t.Fatalf("%v mode: %v", mode, err)
		}
		return sim.Duration(finish)
	}
	multiple := elapsed(Multiple)
	funneled := elapsed(Funneled)
	if multiple <= funneled {
		t.Fatalf("Multiple mode (%v) not slower than Funneled (%v)", multiple, funneled)
	}
}

func TestCrossSocketPenaltyApplies(t *testing.T) {
	// The same send from a thread on the far socket must take longer.
	sendFrom := func(thread int) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(2)
		w := NewWorld(s, cfg)
		c0 := w.Comm(0)
		c0.SetPlacement(cluster.Place(cfg.Machine, 32))
		var txDone sim.Time
		s.Spawn("sender", func(p *sim.Proc) {
			ep := c0.Endpoint(thread)
			r := ep.IsendBytes(p, 1, 0, 1024)
			r.Wait(p)
			txDone = r.CompletedAt()
		})
		s.Spawn("recv", func(p *sim.Proc) { w.Comm(1).Recv(p, 0, 0) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(txDone)
	}
	near := sendFrom(0) // socket 0, with the NIC
	far := sendFrom(25) // socket 1
	want := cluster.Niagara().CrossSocketPenalty
	if far-near != want {
		t.Fatalf("cross-socket delta = %v, want %v", far-near, want)
	}
}

func TestColdCacheAddsPayloadFetch(t *testing.T) {
	sendWith := func(mode memsim.CacheMode) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(2)
		cfg.Mem = memsim.Default(mode)
		w := NewWorld(s, cfg)
		var txDone sim.Time
		s.Spawn("sender", func(p *sim.Proc) {
			r := w.Comm(0).IsendBytes(p, 1, 0, 8192)
			r.Wait(p)
			txDone = r.CompletedAt()
		})
		s.Spawn("recv", func(p *sim.Proc) { w.Comm(1).Recv(p, 0, 0) })
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(txDone)
	}
	hot := sendWith(memsim.Hot)
	cold := sendWith(memsim.Cold)
	if cold <= hot {
		t.Fatalf("cold-cache send (%v) not slower than hot (%v)", cold, hot)
	}
}

func TestMatchQueueCostGrowsWithDepth(t *testing.T) {
	// Posting a receive behind a deep unexpected queue of non-matching
	// messages must cost traversal time.
	depth := func(junk int) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(2)
		w := NewWorld(s, cfg)
		var took sim.Duration
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			for i := 0; i < junk; i++ {
				c.SendBytes(p, 1, 1000+i, 8)
			}
			c.SendBytes(p, 1, 5, 8)
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			p.Sleep(sim.Millisecond) // let everything land unexpected
			before := p.Now()
			r := c.Irecv(p, 0, 5)
			took = p.Now().Sub(before)
			r.Wait(p)
			// Drain the junk so the run ends cleanly.
			for i := 0; i < junk; i++ {
				c.Recv(p, 0, 1000+i)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	shallow := depth(0)
	deep := depth(50)
	if deep <= shallow {
		t.Fatalf("deep-queue match (%v) not slower than shallow (%v)", deep, shallow)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		if c.Rank() != 0 {
			return
		}
		mustPanic(t, "rank 2 out of range", func() { c.SendBytes(p, 2, 0, 8) })
		mustPanic(t, "rank -1 out of range", func() { c.SendBytes(p, -1, 0, 8) })
		mustPanic(t, "rank 2 out of range", func() { c.world.Comm(2) })
	})
}

// Property: any random schedule of sends (mixed sizes straddling the eager
// threshold, random tags) is received exactly once with intact payloads.
func TestQuickDeliveryIntegrity(t *testing.T) {
	f := func(seed int64, nMsgs uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(nMsgs%24) + 1
		type msg struct {
			tag  int
			body []byte
		}
		msgs := make([]msg, count)
		for i := range msgs {
			size := 1 << uint(rng.Intn(20)) // 1B .. 512KiB, both protocols
			body := make([]byte, size)
			rng.Read(body)
			msgs[i] = msg{tag: i, body: body}
		}
		s := sim.New()
		w := NewWorld(s, DefaultConfig(2))
		ok := true
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			for _, m := range msgs {
				p.Sleep(sim.Duration(rng.Intn(2000)))
				c.isendData(p, 1, m.tag, ctxP2P, m.body)
			}
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			// Receive in random order to exercise both queue paths.
			order := rng.Perm(count)
			var reqs []*Request
			for _, i := range order {
				p.Sleep(sim.Duration(rng.Intn(2000)))
				reqs = append(reqs, c.Irecv(p, 0, msgs[i].tag))
			}
			for k, r := range reqs {
				r.Wait(p)
				if !bytes.Equal(r.data, msgs[order[k]].body) {
					ok = false
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// startAll activates every persistent request in order, the analogue of
// MPI_Startall; nil entries are skipped.
func startAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.Start(p)
		}
	}
}

func TestStartAllActivatesEveryRequest(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			a := c.SendInitBytes(p, 1, 0, 256)
			b := c.SendInitBytes(p, 1, 1, 256)
			c.Barrier(p)
			startAll(p, a, nil, b)
			WaitAll(p, a, b)
			c.Barrier(p)
		case 1:
			a := c.RecvInit(p, 0, 0)
			b := c.RecvInit(p, 0, 1)
			c.Barrier(p)
			startAll(p, a, b)
			WaitAll(p, a, b)
			if a.size != 256 || b.size != 256 {
				t.Errorf("persistent receives got %d/%d bytes", a.size, b.size)
			}
			c.Barrier(p)
		}
	})
}
