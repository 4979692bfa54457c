package mpi

import "partmb/internal/sim"

// This file rounds out the point-to-point API surface with the remaining
// commonly used MPI operations: combined send-receive, any-completion waits,
// probing, and synchronous-mode sends.

// Sendrecv performs a combined send and receive (the analogue of
// MPI_Sendrecv): both transfers progress concurrently, which makes the
// classic neighbour-shift exchange deadlock-free.
func (c *Comm) Sendrecv(p *sim.Proc, dest, sendTag int, data []byte, src, recvTag int) ([]byte, int64) {
	sreq := c.Isend(p, dest, sendTag, data)
	rreq := c.Irecv(p, src, recvTag)
	sreq.Wait(p)
	rreq.Wait(p)
	return rreq.Data(), rreq.Size()
}

// SendrecvBytes is Sendrecv for size-only messages.
func (c *Comm) SendrecvBytes(p *sim.Proc, dest, sendTag int, size int64, src, recvTag int) int64 {
	sreq := c.IsendBytes(p, dest, sendTag, size)
	rreq := c.Irecv(p, src, recvTag)
	sreq.Wait(p)
	rreq.Wait(p)
	return rreq.Size()
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
	return c.issendOn(p, 0, dest, tag, int64(len(data)), data)
}

// IssendBytes is Issend for a size-only message.
func (c *Comm) IssendBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	return c.issendOn(p, 0, dest, tag, size, nil)
}

// Ssend is the blocking form of Issend.
func (c *Comm) Ssend(p *sim.Proc, dest, tag int, data []byte) {
	c.Issend(p, dest, tag, data).Wait(p)
}

func (c *Comm) issendOn(p *sim.Proc, thread, dest, tag int, size int64, data []byte) *Request {
	w := c.world
	sreq := &Request{
		comm:        c,
		kind:        sendReq,
		peer:        c.worldOf(dest),
		tag:         tag,
		ctx:         c.ctxP2P(),
		size:        size,
		data:        data,
		thread:      thread,
		postedAt:    p.Now(),
		matchedFrom: c.rank,
	}
	call := c.enter(p, 0)
	w.startRendezvous(p.Now(), c.state(), c.peer(dest), sreq, c.sendExtra(thread, size))
	call.done()
	return sreq
}
