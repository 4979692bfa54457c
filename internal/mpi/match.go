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

// matchKey is the envelope matching compares: a receive takes a message
// only when context, source and tag are all equal.
type matchKey struct {
	ctx, src, tag int
}

// keyed is what a matching queue holds: a posted receive or an unexpected
// message, each carrying its envelope.
type keyed interface{ key() matchKey }

func (r *Request) key() matchKey { return matchKey{r.ctx, r.peer, r.tag} }
func (m *inbound) key() matchKey { return matchKey{m.ctx, m.src, m.tag} }

// keyedFIFO is one matching queue, ordered first in, first out (MPI's
// non-overtaking rule), with an occupancy count per key beside it.
//
// The slots stay authoritative for ordering and for the scanned counts that
// feed matching-cost accounting; the counts make the overwhelming case in
// the figure sweeps O(1): a definite miss answers without walking the queue
// (scanned is still the full queue length, exactly what the FIFO walk would
// have inspected), and a definite hit walks only to locate its position.
type keyedFIFO[T keyed] struct {
	slots []T
	count map[matchKey]int
}

// push appends v.
func (q *keyedFIFO[T]) push(v T) {
	q.slots = append(q.slots, v)
	if q.count == nil {
		q.count = make(map[matchKey]int)
	}
	q.count[v.key()]++
}

// take removes and returns the earliest entry under key k. scanned is the
// number of entries a FIFO walk inspects: 0 on an empty queue, i+1 for a
// hit at position i, the full queue length on a miss.
func (q *keyedFIFO[T]) take(k matchKey) (v T, ok bool, scanned int) {
	if q.count[k] == 0 {
		return v, false, len(q.slots)
	}
	for i, x := range q.slots {
		if x.key() == k {
			q.slots = append(q.slots[:i], q.slots[i+1:]...)
			if q.count[k]--; q.count[k] == 0 {
				delete(q.count, k)
			}
			return x, true, i + 1
		}
	}
	panic("mpi: matching index out of step with its queue")
}

// reset empties the queue, keeping its storage.
func (q *keyedFIFO[T]) reset() {
	clear(q.slots)
	q.slots = q.slots[:0]
	clear(q.count)
}

// matcher is the per-rank matching engine: a posted-receive queue and an
// unexpected-message queue.
type matcher struct {
	posted     keyedFIFO[*Request]
	unexpected keyedFIFO[*inbound]
}

// reset empties both queues for a new world, keeping their storage.
func (m *matcher) reset() {
	m.posted.reset()
	m.unexpected.reset()
}
