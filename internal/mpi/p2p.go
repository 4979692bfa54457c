package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

// IsendBytes starts a nonblocking send of size bytes to dest with the given
// tag and returns its request. No payload is carried: only the timing of the
// transfer is modelled. The send completes locally when the message has left
// the injection engine (eager) or when the rendezvous data transfer has been
// injected (large messages). The request comes off the rank's free list;
// FreeAll gives it back once it has completed.
func (c *Comm) IsendBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	return c.isendOn(p, c.state().takeReq(), 0, dest, tag, ctxP2P, size)
}

// SendBytes is the blocking form of IsendBytes.
func (c *Comm) SendBytes(p *sim.Proc, dest, tag int, size int64) {
	c.send(p, 0, dest, tag, size)
}

// send is the blocking send from the given thread, on a request of the
// rank's free list.
func (c *Comm) send(p *sim.Proc, thread, dest, tag int, size int64) {
	c.isendOn(p, c.state().takeReq(), thread, dest, tag, ctxP2P, size).finish(p)
}

// Irecv posts a nonblocking receive matching (src, tag) exactly. Like
// IsendBytes's, its request comes off the rank's free list.
func (c *Comm) Irecv(p *sim.Proc, src, tag int) *Request {
	return c.irecvOn(p, c.state().takeReq(), src, tag, ctxP2P)
}

// Recv blocks until a matching message arrives.
func (c *Comm) Recv(p *sim.Proc, src, tag int) {
	c.irecvOn(p, c.state().takeReq(), src, tag, ctxP2P).finish(p)
}

// isendOn implements the send path on context ctx for the given sending
// thread index, into the blank request sreq (see takeReq). It sets every
// field of the envelope but the payload, which a blank request has none of.
func (c *Comm) isendOn(p *sim.Proc, sreq *Request, thread, dest, tag, ctx int, size int64) *Request {
	sreq.comm, sreq.kind, sreq.peer, sreq.tag, sreq.ctx = c, sendReq, c.checkRank(dest), tag, ctx
	sreq.size, sreq.thread = size, thread
	call := c.enter(p, 0)
	c.world.startSend(p.Now(), c.state(), c.peer(dest), sreq, c.sendExtra(thread, size))
	call.done()
	return sreq
}

// sendExtra computes the per-message injection surcharge for a payload of
// the given size sent by the given thread: cross-socket doorbell cost plus
// cold-cache DRAM fetch of the payload.
func (c *Comm) sendExtra(thread int, size int64) sim.Duration {
	return c.placement.InjectionPenalty(thread) + c.world.cfg.Mem.AccessStall(size)
}

// The steps of a message's life after injection. Each is one event, and the
// op the inbound schedules on itself to get there.
const (
	msgAtNIC     = iota // last byte at the receiver NIC
	msgDelivered        // through the receiver NIC: match
	ctsAtNIC            // rendezvous: clear-to-send at the sender NIC
	ctsDelivered        // clear-to-send processed: stream the payload
	payloadAtNIC        // rendezvous payload's last byte at the receiver NIC
	partAtNIC           // native partition's last byte at the receiver NIC
	partLanded          // native partition past the receive-side completion
)

// recordsPerRank sizes a scheduler's record free list: it holds at most this
// many records per rank on the scheduler. Under one-directional traffic
// across shards the receiving shard's list would otherwise hoard every
// record the sending shard allocates.
const recordsPerRank = 64

// newMessage takes a record for sreq's message (or its RTS) to rank to and
// fills in the envelope.
func (w *World) newMessage(from, to *rankState, sreq *Request, kind msgKind) *inbound {
	m := w.newInbound(from, to)
	m.src, m.tag, m.ctx, m.size, m.data = sreq.comm.rank, sreq.tag, sreq.ctx, sreq.size, sreq.data
	m.kind = kind
	return m
}

// newInbound takes a blank record for a transfer from → to off the sender's
// scheduler's free list. It runs on the sender's shard.
func (w *World) newInbound(from, to *rankState) *inbound {
	var m *inbound
	l := from.records
	if n := len(l.free); n > 0 {
		m = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		m = new(inbound)
	}
	m.w, m.to = w, to
	return m
}

// release returns a consumed message record to the receiver's scheduler's
// free list. It runs on the receiver's shard, so like newInbound it touches
// only the list of the running shard.
func (st *rankState) release(m *inbound) {
	if l := st.records; len(l.free) < l.max {
		*m = inbound{}
		l.free = append(l.free, m)
	}
}

// startSend injects the message (eager) or its RTS (rendezvous); the
// receiver-side events follow in Fire. It may be called from proc or event
// context; now is the injection request time.
func (w *World) startSend(now sim.Time, from, to *rankState, sreq *Request, extra sim.Duration) {
	if !w.cfg.Net.Eager(sreq.size) {
		w.startRendezvous(now, from, to, sreq, extra)
		return
	}
	oneWay := w.latency(from.id, to.id) + w.crossDelay(now, from, to, sreq.size)
	txDone, arrive := from.nic.InjectLat(now, sreq.size, extra, oneWay)
	sreq.completeAt(txDone)
	from.sched.DeferFire(to.sched, arrive, w.newMessage(from, to, sreq, kindEager), msgAtNIC)
}

// startRendezvous sends the zero-byte RTS control message; the payload
// stays put until the receiver matches and returns a CTS.
func (w *World) startRendezvous(now sim.Time, from, to *rankState, sreq *Request, extra sim.Duration) {
	_, arrive := from.nic.InjectLat(now, 0, 0, w.latency(from.id, to.id))
	m := w.newMessage(from, to, sreq, kindRTS)
	m.rendezvous = rendezvous{sender: from, extra: extra, sreq: sreq}
	from.sched.DeferFire(to.sched, arrive, m, msgAtNIC)
}

// Fire advances the message one step. Every event runs on the shard of the
// rank it happens at — the receiver's, except the two CTS steps on the
// sender's — and fires at the time it was scheduled for, so that shard's
// clock is the step's timestamp. A hop between the two ranks goes through
// DeferFire, which on a single shard degenerates to AtFire.
func (m *inbound) Fire(op int) {
	w, to := m.w, m.to
	switch op {
	case msgAtNIC:
		m.deliveredAt = to.nic.Deliver(to.sched.Now())
		to.sched.AtFire(m.deliveredAt, m, msgDelivered)
	case msgDelivered:
		w.handleArrival(to, m)
	case ctsAtNIC:
		sender := m.sender
		sender.sched.AtFire(sender.nic.Deliver(sender.sched.Now()), m, ctsDelivered)
	case ctsDelivered:
		// The configured rendezvous setup cost covers protocol bookkeeping
		// on the sender.
		sender := m.sender
		start := sender.sched.Now().Add(w.cfg.Net.RendezvousSetup)
		dataOneWay := m.ctsOneWay + w.crossDelay(start, sender, to, m.size)
		txDone, dataArrive := sender.nic.InjectLat(start, m.size, m.extra, dataOneWay)
		m.sreq.completeAt(txDone)
		sender.sched.DeferFire(to.sched, dataArrive, m, payloadAtNIC)
	case payloadAtNIC:
		m.rreq.data = m.data
		m.rreq.completeAt(to.nic.Deliver(to.sched.Now()))
		to.release(m)
	case partAtNIC:
		to.sched.AtFire(to.sched.Now().Add(w.cfg.NativeRxOverhead), m, partLanded)
	case partLanded:
		rpr, a := m.precv, nativeArrival{part: m.part, epoch: m.epoch, at: to.sched.Now(), data: m.data}
		to.release(m)
		rpr.nativeArrive(a)
	default:
		panic(fmt.Sprintf("mpi: message fired with unknown step %d", op))
	}
}

// handleArrival matches a delivered message against the posted-receive
// queue, completing the receive or parking the message as unexpected.
func (w *World) handleArrival(to *rankState, inb *inbound) {
	req, ok, scanned := to.matcher.posted.take(inb.key())
	if !ok {
		to.matcher.unexpected.push(inb)
		return
	}
	t := inb.deliveredAt.Add(sim.Duration(scanned) * w.cfg.MatchPerElement)
	switch inb.kind {
	case kindEager:
		req.data = inb.data
		req.size = inb.size
		req.completeAt(t)
		to.release(inb)
	case kindRTS:
		req.size = inb.size
		w.startCTS(t, to, inb, req)
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
	inb, ok, scanned := st.matcher.unexpected.take(rreq.key())
	if !ok {
		st.matcher.posted.push(rreq)
	}
	if scanned > 0 {
		p.Sleep(sim.Duration(scanned) * w.cfg.MatchPerElement)
	}
	if !ok {
		return
	}
	switch inb.kind {
	case kindEager:
		// The payload sat in the unexpected buffer; draining it into the
		// user buffer costs a copy.
		rreq.data = inb.data
		rreq.size = inb.size
		copyCost := sim.Duration(float64(inb.size) / w.cfg.CopyBandwidth * 1e9)
		rreq.completeAt(p.Now().Add(copyCost))
		st.release(inb)
	case kindRTS:
		rreq.size = inb.size
		w.startCTS(p.Now(), st, inb, rreq)
	}
}

// irecvOn posts a receive on context ctx into the blank request rreq (see
// isendOn).
func (c *Comm) irecvOn(p *sim.Proc, rreq *Request, src, tag, ctx int) *Request {
	rreq.comm, rreq.kind, rreq.peer, rreq.tag, rreq.ctx = c, recvReq, c.checkRank(src), tag, ctx
	call := c.enter(p, 0)
	c.postRecv(p, rreq)
	call.done()
	return rreq
}

// startCTS sends the rendezvous clear-to-send back to the sender at time t;
// the data transfer follows on its arrival (Fire, from ctsAtNIC on).
func (w *World) startCTS(t sim.Time, to *rankState, m *inbound, rreq *Request) {
	m.rreq = rreq
	m.ctsOneWay = w.latency(to.id, m.sender.id)
	_, arrive := to.nic.InjectLat(t, 0, 0, m.ctsOneWay)
	to.sched.DeferFire(m.sender.sched, arrive, m, ctsAtNIC)
}
