package mpi

import "partmb/internal/sim"

// Isend starts a nonblocking send of data to dest with the given tag and
// returns its request. The send completes locally when the payload has left
// the injection engine (eager) or when the rendezvous data transfer has been
// injected (large messages).
func (c *Comm) Isend(p *sim.Proc, dest, tag int, data []byte) *Request {
	return c.isendOn(p, 0, dest, tag, int64(len(data)), data)
}

// IsendBytes is Isend for a size-only message (no payload is carried;
// benchmarks use this to avoid large allocations).
func (c *Comm) IsendBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	return c.isendOn(p, 0, dest, tag, size, nil)
}

// Send is the blocking form of Isend.
func (c *Comm) Send(p *sim.Proc, dest, tag int, data []byte) {
	c.Isend(p, dest, tag, data).Wait(p)
}

// SendBytes is the blocking form of IsendBytes.
func (c *Comm) SendBytes(p *sim.Proc, dest, tag int, size int64) {
	c.IsendBytes(p, dest, tag, size).Wait(p)
}

// Irecv posts a nonblocking receive matching (src, tag); src may be
// AnySource and tag AnyTag.
func (c *Comm) Irecv(p *sim.Proc, src, tag int) *Request {
	return c.irecvOn(p, src, tag)
}

// Recv blocks until a matching message arrives and returns its payload (nil
// for size-only sends) and size.
func (c *Comm) Recv(p *sim.Proc, src, tag int) ([]byte, int64) {
	r := c.Irecv(p, src, tag)
	r.Wait(p)
	return r.data, r.size
}

// isendOn implements the send path for the given sending thread index.
func (c *Comm) isendOn(p *sim.Proc, thread, dest, tag int, size int64, data []byte) *Request {
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
	w.startSend(p.Now(), c.state(), c.peer(dest), sreq, c.sendExtra(thread, size))
	call.done()
	return sreq
}

// sendExtra computes the per-message injection surcharge for a payload of
// the given size sent by the given thread: cross-socket doorbell cost plus
// cold-cache DRAM fetch of the payload.
func (c *Comm) sendExtra(thread int, size int64) sim.Duration {
	return c.placement.InjectionPenalty(thread) + c.world.cfg.Mem.AccessStall(size)
}

// startSend injects the message (eager) or its RTS (rendezvous) and chains
// the receiver-side events. It may be called from proc or event context;
// now is the injection request time.
func (w *World) startSend(now sim.Time, from, to *rankState, sreq *Request, extra sim.Duration) {
	if w.cfg.Net.Eager(sreq.size) {
		oneWay := w.latency(from.id, to.id) + w.crossDelay(now, from, to, sreq.size)
		txDone, arrive := from.nic.InjectLat(now, sreq.size, extra, oneWay)
		sreq.completeAt(from.sched, txDone)
		w.scheduleArrival(from, to, arrive, &inbound{
			src: sreq.comm.rank, tag: sreq.tag, ctx: sreq.ctx,
			size: sreq.size, data: sreq.data, kind: kindEager,
		})
		return
	}
	w.startRendezvous(now, from, to, sreq, extra)
}

// startRendezvous sends the zero-byte RTS control message; the payload
// stays put until the receiver matches and returns a CTS. Synchronous-mode
// sends (Ssend/Issend) use this path directly regardless of message size.
func (w *World) startRendezvous(now sim.Time, from, to *rankState, sreq *Request, extra sim.Duration) {
	_, arrive := from.nic.InjectLat(now, 0, 0, w.latency(from.id, to.id))
	rndv := &rendezvous{
		sender: from,
		extra:  extra,
		sreq:   sreq,
		data:   sreq.data,
		size:   sreq.size,
	}
	w.scheduleArrival(from, to, arrive, &inbound{
		src: sreq.comm.rank, tag: sreq.tag, ctx: sreq.ctx,
		size: sreq.size, kind: kindRTS, rndv: rndv,
	})
}

// scheduleArrival runs receiver-NIC delivery and matching for a message
// whose last byte lands at time arrive. It is called from the sender's shard
// and hops to the receiver's; on a single shard Defer degenerates to At.
func (w *World) scheduleArrival(from, to *rankState, arrive sim.Time, inb *inbound) {
	from.sched.Defer(to.sched, arrive, func() {
		delivered := to.nic.Deliver(arrive)
		inb.deliveredAt = delivered
		to.sched.At(delivered, func() {
			w.handleArrival(to, inb)
		})
	})
}

// handleArrival matches a delivered message against the posted-receive
// queue, completing the receive or parking the message as unexpected.
func (w *World) handleArrival(to *rankState, inb *inbound) {
	req, scanned := to.matcher.matchArrival(inb)
	if req == nil {
		to.matcher.addUnexpected(inb)
		return
	}
	t := inb.deliveredAt.Add(sim.Duration(scanned) * w.cfg.MatchPerElement)
	switch inb.kind {
	case kindEager:
		req.data = inb.data
		req.size = inb.size
		req.matchedFrom = inb.src
		req.completeAt(to.sched, t)
	case kindRTS:
		req.size = inb.size
		req.matchedFrom = inb.src
		w.startCTS(t, to, inb.rndv, req)
	}
}

// postRecv runs the receive-side matching for a newly posted receive from
// proc context, charging queue-search time to the caller.
func (c *Comm) postRecv(p *sim.Proc, rreq *Request) {
	w := c.world
	st := c.state()
	// The match-or-post decision must be atomic with respect to arrivals:
	// enqueue first, then charge the traversal time. Sleeping in between
	// would let a message land in the unexpected queue while this receive
	// sits in neither queue, stranding both.
	inb, scanned := st.matcher.matchPosted(rreq)
	if inb == nil {
		st.matcher.addPosted(rreq)
	}
	if scanned > 0 {
		p.Sleep(sim.Duration(scanned) * w.cfg.MatchPerElement)
	}
	if inb == nil {
		return
	}
	switch inb.kind {
	case kindEager:
		// The payload sat in the unexpected buffer; draining it into the
		// user buffer costs a copy.
		rreq.data = inb.data
		rreq.size = inb.size
		rreq.matchedFrom = inb.src
		copyCost := sim.Duration(float64(inb.size) / w.cfg.CopyBandwidth * 1e9)
		rreq.completeAt(st.sched, p.Now().Add(copyCost))
	case kindRTS:
		rreq.size = inb.size
		rreq.matchedFrom = inb.src
		w.startCTS(p.Now(), st, inb.rndv, rreq)
	}
}

// irecvOn posts a receive.
func (c *Comm) irecvOn(p *sim.Proc, src, tag int) *Request {
	peer := src
	if src != AnySource {
		peer = c.worldOf(src)
	}
	rreq := &Request{
		comm:        c,
		kind:        recvReq,
		peer:        peer,
		tag:         tag,
		ctx:         c.ctxP2P(),
		postedAt:    p.Now(),
		matchedFrom: peer,
	}
	call := c.enter(p, 0)
	c.postRecv(p, rreq)
	call.done()
	return rreq
}

// startCTS sends the rendezvous clear-to-send back to the sender at time t
// and chains the data transfer on its arrival.
func (w *World) startCTS(t sim.Time, to *rankState, rndv *rendezvous, rreq *Request) {
	rndv.rreq = rreq
	sender := rndv.sender
	oneWay := w.latency(to.id, sender.id)
	_, arrive := to.nic.InjectLat(t, 0, 0, oneWay)
	to.sched.Defer(sender.sched, arrive, func() {
		delivered := sender.nic.Deliver(arrive)
		sender.sched.At(delivered, func() {
			// CTS processed: stream the payload. The configured rendezvous
			// setup cost covers protocol bookkeeping on the sender.
			start := delivered.Add(w.cfg.Net.RendezvousSetup)
			dataOneWay := oneWay + w.crossDelay(start, sender, to, rndv.size)
			txDone, dataArrive := sender.nic.InjectLat(start, rndv.size, rndv.extra, dataOneWay)
			rndv.sreq.completeAt(sender.sched, txDone)
			sender.sched.Defer(to.sched, dataArrive, func() {
				done := to.nic.Deliver(dataArrive)
				rreq.data = rndv.data
				rreq.completeAt(to.sched, done)
			})
		})
	})
}
