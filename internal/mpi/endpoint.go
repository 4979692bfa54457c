package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

// Endpoint is a thread-bound communicator handle. Operations issued through
// an endpoint are charged the issuing thread's socket-dependent costs (the
// cross-socket injection penalty when the thread runs on a socket without
// the NIC) and, under MPI_THREAD_MULTIPLE, contend for the library lock.
//
// Use Comm methods directly for main-thread (thread 0) traffic; use
// endpoints inside parallel regions.
type Endpoint struct {
	c      *Comm
	thread int
}

// Endpoint returns a handle bound to the given thread index of the rank's
// placement. Handles are cached: repeated calls return the same one.
func (c *Comm) Endpoint(thread int) *Endpoint {
	n := c.placement.Threads()
	if thread < 0 || thread >= n {
		panic(fmt.Sprintf("mpi: thread %d out of range [0,%d)", thread, n))
	}
	if len(c.endpoints) < n {
		c.endpoints = make([]Endpoint, n)
		for i := range c.endpoints {
			c.endpoints[i] = Endpoint{c: c, thread: i}
		}
	}
	return &c.endpoints[thread]
}

// IsendBytes starts a size-only nonblocking send from this thread.
func (e *Endpoint) IsendBytes(p *sim.Proc, dest, tag int, size int64) *Request {
	return e.c.isendOn(p, e.c.state().takeReq(), e.thread, dest, tag, ctxP2P, size)
}

// SendBytes is the blocking form of IsendBytes.
func (e *Endpoint) SendBytes(p *sim.Proc, dest, tag int, size int64) {
	e.c.send(p, e.thread, dest, tag, size)
}

// Irecv posts a nonblocking receive from this thread. Receive-side work has
// no socket-dependent injection cost, but the call still contends for the
// library lock under MPI_THREAD_MULTIPLE.
func (e *Endpoint) Irecv(p *sim.Proc, src, tag int) *Request {
	return e.c.Irecv(p, src, tag)
}

// Recv blocks until a matching message arrives.
func (e *Endpoint) Recv(p *sim.Proc, src, tag int) {
	e.c.Recv(p, src, tag)
}
