package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

type reqKind int

const (
	sendReq reqKind = iota
	recvReq
)

// Request represents an in-flight (or persistent) point-to-point operation,
// the analogue of MPI_Request.
type Request struct {
	comm *Comm
	kind reqKind
	// peer is the destination (send) or source (recv) world rank.
	peer int
	tag  int
	ctx  int
	size int64
	data []byte

	// thread is the index of the thread issuing the operation (for
	// socket-dependent injection costs); 0 for main-thread calls.
	thread int

	done        sim.Completion
	completedAt sim.Time

	// persistent-request state
	persistent bool
	started    bool
	// completing is set while the event that completes the request
	// (completeAt) is scheduled and has not fired.
	completing bool
	// pooled is set while the request sits on its rank's free list.
	pooled bool

	// part is set on the inner request of partition partIdx of an MPIPCL
	// partitioned request, which the request's completion reports to (see
	// PRequest.innerDone).
	part    *PRequest
	partIdx int
}

// CompletedAt returns the virtual time the operation completed. Only valid
// after Wait returns.
func (r *Request) CompletedAt() sim.Time { return r.completedAt }

// Wait blocks the calling proc until the request completes, charging the
// MPI call overhead. Waiting on a freed request panics.
func (r *Request) Wait(p *sim.Proc) {
	if r.pooled {
		panic("mpi: Wait on a freed request")
	}
	r.comm.enter(p, 0).done()
	r.done.Wait(p)
}

// free gives a completed request back to its rank, the analogue of
// MPI_Request_free after completion (callers reach it through FreeAll): the
// rank's next nonblocking or blocking call reuses it, so the caller must not
// touch it again. Freeing a request that has not completed, a persistent
// request, an inner request of an MPIPCL partitioned request, or a freed one
// panics, and so do a later Wait or completion of it — but only until the
// rank's next call takes the request again. After that a stale handle
// aliases the reused request.
func (r *Request) free() {
	switch {
	case r.pooled:
		panic("mpi: Free of a freed request")
	case r.persistent:
		panic("mpi: Free of a persistent request")
	case r.part != nil:
		panic("mpi: Free of a partitioned request's inner request")
	case !r.done.Done():
		panic("mpi: Free of an incomplete request")
	}
	st := r.comm.state()
	r.done.Reset()
	*r = Request{done: r.done, pooled: true}
	st.freeReqs = append(st.freeReqs, r)
}

// completeAt schedules the request to complete at time t (>= now) on its
// rank's shard. The request is its own event handler, so a request can have
// only one completion pending; a second is a protocol bug and panics.
func (r *Request) completeAt(t sim.Time) {
	if r.completing {
		panic("mpi: request already has a completion pending")
	}
	if r.pooled {
		panic("mpi: completing a request on a free list")
	}
	r.completing = true
	r.completedAt = t
	r.comm.sched().AtFire(t, r, 0)
}

// Fire completes the request: it is the event completeAt scheduled.
func (r *Request) Fire(int) {
	if r.pooled {
		panic("mpi: completing a request on a free list")
	}
	r.completing = false
	r.done.Fire(r.comm.sched())
	if r.part != nil {
		r.part.innerDone(r)
	}
}

// reset re-arms a persistent request for another Start.
func (r *Request) reset() {
	if !r.persistent {
		panic("mpi: reset of non-persistent request")
	}
	r.done.Reset()
	r.started = false
	if r.kind == recvReq {
		r.data = nil
	}
}

// takeReq returns a blank request for a call of this rank: one a finished
// blocking call or a caller's FreeAll gave back, or a new one.
func (st *rankState) takeReq() *Request {
	n := len(st.freeReqs)
	if n == 0 {
		return new(Request)
	}
	r := st.freeReqs[n-1]
	st.freeReqs = st.freeReqs[:n-1]
	r.pooled = false
	return r
}

// finish waits for a blocking call's request and frees it: a blocking call
// never hands its request to the caller.
func (r *Request) finish(p *sim.Proc) {
	r.Wait(p)
	r.free()
}

// WaitAll waits for every request in order. Ordering does not change the
// result: completion times are set by the simulation, not by Wait order.
func WaitAll(p *sim.Proc, reqs ...*Request) {
	for _, r := range reqs {
		if r == nil {
			continue
		}
		r.Wait(p)
	}
}

// FreeAll gives every completed request back to its rank (see free); nil
// entries are skipped.
func FreeAll(reqs ...*Request) {
	for _, r := range reqs {
		if r != nil {
			r.free()
		}
	}
}

func (r *Request) String() string {
	dir := "recv"
	if r.kind == sendReq {
		dir = "send"
	}
	return fmt.Sprintf("%s{peer=%d tag=%d size=%d done=%v}", dir, r.peer, r.tag, r.size, r.done.Done())
}
