package mpi

import "partmb/internal/sim"

// This file rounds out the point-to-point API surface with the remaining
// commonly used MPI operations: combined send-receive, any-completion waits,
// probing, and synchronous-mode sends.

// Sendrecv performs a combined send and receive (the analogue of
// MPI_Sendrecv): both transfers progress concurrently, which makes the
// classic neighbour-shift exchange deadlock-free.
func (c *Comm) Sendrecv(p *sim.Proc, dest, sendTag int, data []byte, src, recvTag int) ([]byte, int64) {
	return c.sendrecv(p, dest, sendTag, int64(len(data)), data, src, recvTag)
}

// SendrecvBytes is Sendrecv for size-only messages.
func (c *Comm) SendrecvBytes(p *sim.Proc, dest, sendTag int, size int64, src, recvTag int) int64 {
	_, n := c.sendrecv(p, dest, sendTag, size, nil, src, recvTag)
	return n
}

// sendrecv is both forms of Sendrecv, on two requests of the rank's free
// list.
func (c *Comm) sendrecv(p *sim.Proc, dest, sendTag int, size int64, data []byte, src, recvTag int) ([]byte, int64) {
	st := c.state()
	sreq := c.isendOn(p, st.takeReq(), 0, dest, sendTag, c.ctxP2P(), size, data)
	rreq := c.irecvOn(p, st.takeReq(), src, recvTag, c.ctxP2P())
	c.finish(p, sreq)
	return c.finish(p, rreq)
}

// waitAnyPoll bounds the completion-check cadence of WaitAny and Probe.
const (
	waitAnyPollMin = 500 * sim.Nanosecond
	waitAnyPollMax = 50 * sim.Microsecond
)

// WaitAny blocks until at least one of the requests has completed and
// returns the index of the earliest-indexed completed request (the analogue
// of MPI_Waitany). Nil entries are skipped; all-nil input panics.
func WaitAny(p *sim.Proc, reqs ...*Request) int {
	any := false
	for _, r := range reqs {
		if r != nil {
			any = true
			break
		}
	}
	if !any {
		panic("mpi: WaitAny with no requests")
	}
	interval := waitAnyPollMin
	for {
		if i, ok := TestAny(p, reqs...); ok {
			return i
		}
		p.Sleep(interval)
		if interval < waitAnyPollMax {
			interval *= 2
		}
	}
}

// TestAny charges one call overhead and reports the earliest-indexed
// completed request, if any (the analogue of MPI_Testany).
func TestAny(p *sim.Proc, reqs ...*Request) (int, bool) {
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

// ProbeStatus describes a matched-but-unreceived message.
type ProbeStatus struct {
	Source int
	Tag    int
	Size   int64
}

// Iprobe checks, without receiving, whether a message matching (src, tag) —
// wildcards allowed — is available (the analogue of MPI_Iprobe). It reports
// the envelope of the earliest match in the unexpected queue.
func (c *Comm) Iprobe(p *sim.Proc, src, tag int) (ProbeStatus, bool) {
	call := c.enter(p, 0)
	defer call.done()
	st := c.state()
	probePeer := src
	if src != AnySource {
		probePeer = c.worldOf(src)
	}
	probe := &Request{comm: c, kind: recvReq, peer: probePeer, tag: tag, ctx: c.ctxP2P()}
	for i, u := range st.matcher.unexpected {
		if matches(probe, u.src, u.tag, u.ctx) {
			// Read the envelope before sleeping: another thread of this rank
			// may receive the message meanwhile, and the record is recycled.
			ps := ProbeStatus{Source: c.localOf(u.src), Tag: u.tag, Size: u.size}
			p.Sleep(sim.Duration(i+1) * c.world.cfg.MatchPerElement)
			return ps, true
		}
	}
	p.Sleep(sim.Duration(len(st.matcher.unexpected)) * c.world.cfg.MatchPerElement)
	return ProbeStatus{}, false
}

// Probe blocks until a matching message is available (the analogue of
// MPI_Probe), polling with backoff.
func (c *Comm) Probe(p *sim.Proc, src, tag int) ProbeStatus {
	interval := waitAnyPollMin
	for {
		if ps, ok := c.Iprobe(p, src, tag); ok {
			return ps
		}
		p.Sleep(interval)
		if interval < waitAnyPollMax {
			interval *= 2
		}
	}
}

// Issend starts a synchronous-mode nonblocking send (the analogue of
// MPI_Issend): local completion additionally requires that the receive has
// been matched. It is implemented by forcing the rendezvous protocol
// regardless of size.
func (c *Comm) Issend(p *sim.Proc, dest, tag int, data []byte) *Request {
	return c.issendOn(p, c.state().takeReq(), dest, tag, int64(len(data)), data)
}

// IssendBytes is Issend for a size-only message.
func (c *Comm) IssendBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	return c.issendOn(p, c.state().takeReq(), dest, tag, size, nil)
}

// Ssend is the blocking form of Issend.
func (c *Comm) Ssend(p *sim.Proc, dest, tag int, data []byte) {
	c.finish(p, c.issendOn(p, c.state().takeReq(), dest, tag, int64(len(data)), data))
}

// issendOn starts a synchronous-mode send into the blank request sreq (see
// isendOn).
func (c *Comm) issendOn(p *sim.Proc, sreq *Request, dest, tag int, size int64, data []byte) *Request {
	sreq.comm, sreq.kind, sreq.peer, sreq.tag, sreq.ctx = c, sendReq, c.worldOf(dest), tag, c.ctxP2P()
	sreq.size, sreq.data = size, data
	sreq.postedAt, sreq.matchedFrom = p.Now(), c.rank
	call := c.enter(p, 0)
	c.world.startRendezvous(p.Now(), c.state(), c.peer(dest), sreq, c.sendExtra(0, size))
	call.done()
	return sreq
}
