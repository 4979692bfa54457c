package mpi

import (
	"testing"

	"partmb/internal/sim"
)

func TestSendrecvShiftNoDeadlock(t *testing.T) {
	// The classic ring shift: every rank sends right and receives from the
	// left simultaneously. With blocking Send this can deadlock; Sendrecv
	// must not.
	const ranks = 6
	var done [ranks]bool
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		right := (c.Rank() + 1) % ranks
		left := (c.Rank() - 1 + ranks) % ranks
		c.sendrecv(p, right, 0, 64, left, 0)
		done[c.Rank()] = true
	})
	for r, ok := range done {
		if !ok {
			t.Errorf("rank %d did not return from sendrecv", r)
		}
	}
}

func TestSendrecvBytesLargeRing(t *testing.T) {
	// Large (rendezvous) messages through Sendrecv must also complete.
	const ranks = 4
	w := runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		right := (c.Rank() + 1) % ranks
		left := (c.Rank() - 1 + ranks) % ranks
		c.sendrecv(p, right, 0, 1<<20, left, 0)
	})
	for r := 0; r < ranks; r++ {
		if n := w.Comm(r).NICStats().Bytes; n != 1<<20 {
			t.Errorf("rank %d injected %d bytes, want 1MiB", r, n)
		}
	}
}

func TestWaitAnyReturnsFirstCompleted(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			// Send tag 1 early and tag 0 late.
			c.SendBytes(p, 1, 1, 64)
			p.Sleep(time100us)
			c.SendBytes(p, 1, 0, 64)
		case 1:
			r0 := c.Irecv(p, 0, 0)
			r1 := c.Irecv(p, 0, 1)
			i := waitAny(p, r0, r1)
			if i != 1 {
				t.Errorf("waitAny returned %d, want 1 (tag 1 completes first)", i)
			}
			WaitAll(p, r0, r1)
		}
	})
}

func TestWaitAnySkipsNil(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.SendBytes(p, 1, 0, 8)
		case 1:
			r := c.Irecv(p, 0, 0)
			if i := waitAny(p, nil, r, nil); i != 1 {
				t.Errorf("waitAny = %d, want 1", i)
			}
		}
	})
}

func TestWaitAnyEmptyPanics(t *testing.T) {
	runWorld(t, 1, nil, func(c *Comm, p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("waitAny(nil...) did not panic")
			}
		}()
		waitAny(p, nil, nil)
	})
}

func TestTestAny(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			p.Sleep(time100us)
			c.SendBytes(p, 1, 0, 8)
		case 1:
			r := c.Irecv(p, 0, 0)
			if i, ok := testAny(p, r); ok {
				t.Errorf("testAny = %d true before send", i)
			}
			r.Wait(p)
			if i, ok := testAny(p, r); !ok || i != 0 {
				t.Errorf("testAny after completion = %d, %v", i, ok)
			}
		}
	})
}

func TestProbeSeesEnvelopeWithoutConsuming(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.sendData(p, 1, 5, ctxP2P, []byte("hello"))
		case 1:
			ps := c.probe(p, 0, 5)
			if ps.Source != 0 || ps.Tag != 5 || ps.Size != 5 {
				t.Errorf("probe status = %+v", ps)
			}
			// The message must still be receivable.
			data := c.recvData(p, 0, 5, ctxP2P)
			if string(data) != "hello" {
				t.Errorf("after probe, received %q", data)
			}
		}
	})
}

func TestSsendCompletesOnlyWhenMatched(t *testing.T) {
	// Synchronous send of a tiny message: without a posted receive the
	// sender must block; completion comes after the receiver posts.
	var sendDone, recvPost sim.Time
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			c.issend(p, 1, 0, []byte("x")).finish(p)
			sendDone = p.Now()
		case 1:
			p.Sleep(time100us)
			recvPost = p.Now()
			data := c.recvData(p, 0, 0, ctxP2P)
			if string(data) != "x" {
				t.Errorf("ssend payload = %q", data)
			}
		}
	})
	if sendDone < recvPost {
		t.Fatalf("ssend completed at %v, before the receive was posted at %v", sendDone, recvPost)
	}
}

func TestIssendBytesOverlaps(t *testing.T) {
	var sendDone sim.Time
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			r := c.issend(p, 1, 0, make([]byte, 64))
			p.Sleep(time100us) // overlap while waiting for the match
			r.Wait(p)
			sendDone = p.Now()
		case 1:
			c.Recv(p, 0, 0)
		}
	})
	if sendDone == 0 {
		t.Fatal("issend never completed")
	}
}

func TestSendrecvSelf(t *testing.T) {
	// Send-to-self through Sendrecv must work (common in shift patterns
	// with periodic boundaries on tiny grids).
	done := false
	runWorld(t, 1, nil, func(c *Comm, p *sim.Proc) {
		c.sendrecv(p, 0, 0, 8, 0, 0)
		done = true
	})
	if !done {
		t.Error("self sendrecv did not return")
	}
}

// The runtime has no any-completion waits, no probes and no synchronous-mode
// sends. The tests build them here from what the runtime keeps — request
// completions, the unexpected queue, the rendezvous path — to check the
// behaviour those pieces give such calls.

// waitAnyPoll bounds the completion-check cadence of waitAny and probe.
const (
	waitAnyPollMin = 500 * sim.Nanosecond
	waitAnyPollMax = 50 * sim.Microsecond
)

// waitAny blocks until at least one of the requests has completed and
// returns the index of the earliest-indexed completed request (the analogue
// of MPI_Waitany). Nil entries are skipped; all-nil input panics.
func waitAny(p *sim.Proc, reqs ...*Request) int {
	any := false
	for _, r := range reqs {
		if r != nil {
			any = true
			break
		}
	}
	if !any {
		panic("mpi: waitAny with no requests")
	}
	interval := waitAnyPollMin
	for {
		if i, ok := testAny(p, reqs...); ok {
			return i
		}
		p.Sleep(interval)
		if interval < waitAnyPollMax {
			interval *= 2
		}
	}
}

// testAny charges one call overhead and reports the earliest-indexed
// completed request, if any (the analogue of MPI_Testany).
func testAny(p *sim.Proc, reqs ...*Request) (int, bool) {
	var c *Comm
	for _, r := range reqs {
		if r != nil {
			c = r.comm
			break
		}
	}
	if c != nil {
		c.enter(p, 0).done()
	}
	for i, r := range reqs {
		if r != nil && r.done.Done() {
			return i, true
		}
	}
	return -1, false
}

// probeStatus describes a matched-but-unreceived message.
type probeStatus struct {
	Source int
	Tag    int
	Size   int64
}

// iprobe checks, without receiving, whether a message matching (src, tag)
// is available (the analogue of MPI_Iprobe). It reports the envelope of the
// earliest match in the unexpected queue.
func (c *Comm) iprobe(p *sim.Proc, src, tag int) (probeStatus, bool) {
	call := c.enter(p, 0)
	defer call.done()
	q := &c.state().matcher.unexpected
	k := matchKey{ctxP2P, c.checkRank(src), tag}
	for i, u := range q.slots {
		if u.key() == k {
			// Read the envelope before sleeping: another thread of this rank
			// may receive the message meanwhile, and the record is recycled.
			ps := probeStatus{Source: u.src, Tag: u.tag, Size: u.size}
			p.Sleep(sim.Duration(i+1) * c.world.cfg.MatchPerElement)
			return ps, true
		}
	}
	p.Sleep(sim.Duration(len(q.slots)) * c.world.cfg.MatchPerElement)
	return probeStatus{}, false
}

// probe blocks until a matching message is available (the analogue of
// MPI_Probe), polling with backoff.
func (c *Comm) probe(p *sim.Proc, src, tag int) probeStatus {
	interval := waitAnyPollMin
	for {
		if ps, ok := c.iprobe(p, src, tag); ok {
			return ps
		}
		p.Sleep(interval)
		if interval < waitAnyPollMax {
			interval *= 2
		}
	}
}

// issend starts a synchronous-mode nonblocking send of data (the analogue
// of MPI_Issend): local completion additionally requires that the receive
// has been matched, which forcing the rendezvous protocol regardless of size
// gives.
func (c *Comm) issend(p *sim.Proc, dest, tag int, data []byte) *Request {
	sreq := c.state().takeReq()
	sreq.comm, sreq.kind, sreq.peer, sreq.tag, sreq.ctx = c, sendReq, c.checkRank(dest), tag, ctxP2P
	sreq.size, sreq.data = int64(len(data)), data
	call := c.enter(p, 0)
	c.world.startRendezvous(p.Now(), c.state(), c.peer(dest), sreq, c.sendExtra(0, sreq.size))
	call.done()
	return sreq
}
