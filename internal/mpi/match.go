package mpi

import "partmb/internal/sim"

// msgKind distinguishes what landed at a receiver.
type msgKind int

const (
	// kindEager carries the payload itself.
	kindEager msgKind = iota
	// kindRTS is a rendezvous request-to-send; the payload is still at the
	// sender awaiting a clear-to-send.
	kindRTS
)

// rendezvous carries the sender-side state a matched RTS needs to complete
// the transfer.
type rendezvous struct {
	sender *rankState
	// extra is the per-message injection surcharge (cross-socket penalty,
	// cold-cache payload fetch) to apply when the data finally flows.
	extra sim.Duration
	sreq  *Request
	rreq  *Request
	// ctsOneWay is the wire latency the CTS travelled with; the payload
	// takes the same path back.
	ctsOneWay sim.Duration
}

// inbound is one message on its way from a sender's NIC into a receiver's
// matcher: the envelope, the payload (eager) or the rendezvous state (RTS),
// and — because it is the sim.Handler of every event of its own transfer
// (see Fire in p2p.go) — no closures. A native partition landing travels as
// one too, with precv set instead of an envelope.
//
// Records are recycled (World.newInbound, rankState.release): the sending
// rank takes one from its own free list, the receiving rank returns it to
// its own once the match has consumed it. Nothing may hold an *inbound past
// release; an entry of the unexpected queue is not released until a receive
// takes it out, so a reader that does not take it out (a probe) must not keep
// the pointer across a Sleep.
type inbound struct {
	w             *World
	to            *rankState
	src, tag, ctx int
	size          int64
	data          []byte
	kind          msgKind
	deliveredAt   sim.Time
	rendezvous

	// Native partitioned transfers: the bound receive request and which
	// partition of which epoch this is.
	precv       *PRequest
	part, epoch int
}

// matchKey is the exact-match envelope for the per-rank matching index.
// Inbound messages always carry a concrete key; posted receives only do when
// they use neither wildcard.
type matchKey struct {
	ctx, src, tag int
}

// matcher is the per-rank matching engine: a posted-receive queue and an
// unexpected-message queue, both ordered FIFO (MPI's non-overtaking rule).
//
// The slices stay authoritative for ordering and for the scanned counts that
// feed matching-cost accounting, but each queue also keeps an exact-envelope
// occupancy index so the overwhelming cases in the figure sweeps are O(1):
// a definite miss answers without walking the queue (scanned is still
// reported as the full queue length, exactly what the FIFO walk would have
// inspected), and a definite hit falls back to the FIFO scan only to locate
// its position. Posted receives using AnySource/AnyTag are counted in
// postedWild instead; while any are pending, arrival matching always takes
// the FIFO path so wildcards keep their non-overtaking position.
type matcher struct {
	posted     []*Request
	unexpected []*inbound

	postedExact map[matchKey]int
	postedWild  int
	unexpExact  map[matchKey]int
}

// reset empties both queues and their indexes for a new world, keeping their
// storage.
func (m *matcher) reset() {
	clear(m.posted)
	clear(m.unexpected)
	m.posted, m.unexpected = m.posted[:0], m.unexpected[:0]
	clear(m.postedExact)
	clear(m.unexpExact)
	m.postedWild = 0
}

// matches implements the MPI matching predicate: contexts must be equal;
// posted source/tag match exactly or via wildcard.
func matches(r *Request, src, tag, ctx int) bool {
	if r.ctx != ctx {
		return false
	}
	if r.peer != AnySource && r.peer != src {
		return false
	}
	if r.tag != AnyTag && r.tag != tag {
		return false
	}
	return true
}

func isWild(r *Request) bool { return r.peer == AnySource || r.tag == AnyTag }

// addPosted appends a receive to the posted queue and indexes it.
func (m *matcher) addPosted(r *Request) {
	m.posted = append(m.posted, r)
	if isWild(r) {
		m.postedWild++
		return
	}
	if m.postedExact == nil {
		m.postedExact = make(map[matchKey]int)
	}
	m.postedExact[matchKey{r.ctx, r.peer, r.tag}]++
}

// addUnexpected appends an arrival to the unexpected queue and indexes it.
func (m *matcher) addUnexpected(inb *inbound) {
	m.unexpected = append(m.unexpected, inb)
	if m.unexpExact == nil {
		m.unexpExact = make(map[matchKey]int)
	}
	m.unexpExact[matchKey{inb.ctx, inb.src, inb.tag}]++
}

func (m *matcher) dropPosted(i int) {
	r := m.posted[i]
	m.posted = append(m.posted[:i], m.posted[i+1:]...)
	if isWild(r) {
		m.postedWild--
		return
	}
	k := matchKey{r.ctx, r.peer, r.tag}
	if m.postedExact[k]--; m.postedExact[k] == 0 {
		delete(m.postedExact, k)
	}
}

func (m *matcher) dropUnexpected(i int) {
	u := m.unexpected[i]
	m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
	k := matchKey{u.ctx, u.src, u.tag}
	if m.unexpExact[k]--; m.unexpExact[k] == 0 {
		delete(m.unexpExact, k)
	}
}

// matchArrival finds the earliest posted receive matching the inbound
// message, removing it from the queue. scanned is the number of queue
// entries inspected (for matching-cost accounting): 0 on an empty queue,
// i+1 for a hit at position i, the full queue length on a miss — identical
// to a plain FIFO walk regardless of which path answers.
func (m *matcher) matchArrival(inb *inbound) (req *Request, scanned int) {
	// With no wildcard receives pending, the exact index settles a miss
	// without walking the queue.
	if m.postedWild == 0 && m.postedExact[matchKey{inb.ctx, inb.src, inb.tag}] == 0 {
		return nil, len(m.posted)
	}
	for i, r := range m.posted {
		scanned++
		if matches(r, inb.src, inb.tag, inb.ctx) {
			m.dropPosted(i)
			return r, scanned
		}
	}
	return nil, scanned
}

// matchPosted finds the earliest unexpected message matching a newly posted
// receive, removing it from the queue. scanned follows the same FIFO-walk
// accounting as matchArrival.
func (m *matcher) matchPosted(r *Request) (inb *inbound, scanned int) {
	// Exact receives settle a miss from the index; wildcard receives could
	// match any envelope in their context, so they always walk.
	if !isWild(r) && m.unexpExact[matchKey{r.ctx, r.peer, r.tag}] == 0 {
		return nil, len(m.unexpected)
	}
	for i, u := range m.unexpected {
		scanned++
		if matches(r, u.src, u.tag, u.ctx) {
			m.dropUnexpected(i)
			return u, scanned
		}
	}
	return nil, scanned
}

// PostedLen and UnexpectedLen expose queue depths for tests and diagnostics.
func (m *matcher) PostedLen() int     { return len(m.posted) }
func (m *matcher) UnexpectedLen() int { return len(m.unexpected) }
