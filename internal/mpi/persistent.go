package mpi

import "partmb/internal/sim"

// SendInitBytes creates a persistent size-only send request: the envelope
// (destination, tag, size) is registered once, and each Start/Wait cycle
// performs one transfer, the analogue of MPI_Send_init.
func (c *Comm) SendInitBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	c.enter(p, 0).done()
	r := c.state().persist.take()
	*r = Request{
		comm:       c,
		kind:       sendReq,
		peer:       c.checkRank(dest),
		tag:        tag,
		ctx:        ctxP2P,
		size:       size,
		persistent: true,
		done:       r.done,
	}
	r.inactive(p.Scheduler())
	return r
}

// RecvInit creates a persistent receive request, the analogue of
// MPI_Recv_init.
func (c *Comm) RecvInit(p *sim.Proc, src, tag int) *Request {
	c.enter(p, 0).done()
	r := c.state().persist.take()
	*r = Request{
		comm:       c,
		kind:       recvReq,
		peer:       c.checkRank(src),
		tag:        tag,
		ctx:        ctxP2P,
		persistent: true,
		done:       r.done,
	}
	r.inactive(p.Scheduler())
	return r
}

// inactive fires the new persistent request's completion: a persistent
// request is "inactive" (and therefore wait-able as a no-op) until its first
// Start. The completion may come from a request an earlier world made, which
// may have been left started.
func (r *Request) inactive(s *sim.Scheduler) {
	r.done.Reset()
	r.done.Fire(s)
}

// Start activates a persistent request for one transfer cycle, the analogue
// of MPI_Start. Starting an active (incomplete) request panics.
func (r *Request) Start(p *sim.Proc) {
	if !r.persistent {
		panic("mpi: Start on non-persistent request (use IsendBytes/Irecv)")
	}
	if r.started && !r.done.Done() {
		panic("mpi: Start on active persistent request")
	}
	r.reset()
	r.started = true
	c := r.comm
	switch r.kind {
	case sendReq:
		call := c.enter(p, 0)
		c.world.startSend(p.Now(), c.state(), c.world.ranks[r.peer], r, c.sendExtra(r.thread, r.size))
		call.done()
	case recvReq:
		call := c.enter(p, 0)
		c.postRecv(p, r)
		call.done()
	}
}
