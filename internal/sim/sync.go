package sim

// Mutex is a mutual-exclusion lock for procs. Waiters are queued FIFO, so
// lock handoff is fair and deterministic. The zero value is usable but a
// Mutex must not be copied after first use.
type Mutex struct {
	owner   *Proc
	waiters []*Proc
}

// Waiters returns the number of procs queued on the mutex. The MPI layer uses
// this to model lock-contention penalties under MPI_THREAD_MULTIPLE.
func (m *Mutex) Waiters() int { return len(m.waiters) }

// Lock acquires the mutex, blocking the calling proc until it is available.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock")
	}
	m.waiters = append(m.waiters, p)
	p.park(parkMutex, 0, 0)
}

// Unlock releases the mutex. If procs are waiting, ownership transfers to the
// earliest waiter, which is scheduled to resume at the current virtual time.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner")
	}
	if len(m.waiters) == 0 {
		m.owner = nil
		return
	}
	next := m.waiters[0]
	copy(m.waiters, m.waiters[1:])
	m.waiters = m.waiters[:len(m.waiters)-1]
	m.owner = next
	p.s.wake(next)
}

// Cond is a condition variable tied to a Mutex, analogous to sync.Cond.
type Cond struct {
	// L is the mutex that must be held when calling Wait.
	L       *Mutex
	waiters []*Proc
}

// NewCond returns a condition variable using l.
func NewCond(l *Mutex) *Cond { return &Cond{L: l} }

// Wait atomically releases c.L, suspends the proc until Signal,
// then reacquires c.L before returning. As with sync.Cond, the awaited
// predicate must be rechecked in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	c.L.Unlock(p)
	p.park(parkCond, 0, 0)
	c.L.Lock(p)
}

// Signal wakes the earliest waiter, if any. The caller (p) need not hold c.L,
// but typically does.
func (c *Cond) Signal(p *Proc) {
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	p.s.wake(w)
}

// WaitGroup mirrors sync.WaitGroup for procs.
type WaitGroup struct {
	n       int
	waiters []*Proc
}

// Add adds delta to the counter. Panics if the counter goes negative.
func (wg *WaitGroup) Add(s *Scheduler, delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		for _, w := range wg.waiters {
			s.wake(w)
		}
		wg.waiters = wg.waiters[:0]
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done(s *Scheduler) { wg.Add(s, -1) }

// Wait blocks p until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park(parkWaitGroup, 0, 0)
	}
}

// Barrier synchronizes a fixed party of procs: each Await blocks until all
// parties have arrived, then every party resumes. The barrier is reusable
// (generation-counted).
type Barrier struct {
	parties int
	arrived int
	gen     int
	waiters []*Proc
}

// NewBarrier returns a barrier for the given number of parties (>0).
func NewBarrier(parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier parties must be positive")
	}
	return &Barrier{parties: parties}
}

// Await blocks p until all parties have called Await for this generation.
func (b *Barrier) Await(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		b.gen++
		for _, w := range b.waiters {
			p.s.wake(w)
		}
		b.waiters = b.waiters[:0]
		return
	}
	gen := b.gen
	b.waiters = append(b.waiters, p)
	for gen == b.gen {
		p.park(parkBarrier, int64(gen), 0)
	}
}

// Completion is a one-shot latch: procs can wait for it, and a single Fire
// (from proc or event context) releases all current and future waiters.
// Reset re-arms it for another round.
type Completion struct {
	done bool
	// fires counts Fires, so a waiter returns once the round it waited in
	// has fired, even if Reset re-armed the completion before it resumed.
	fires   uint64
	waiters []*Proc
}

// Done reports whether the completion has fired.
func (c *Completion) Done() bool { return c.done }

// Fire marks the completion done and wakes all waiters. Firing twice panics:
// it would indicate a double-completion bug in the caller. The waiter list
// keeps its storage for the next round.
func (c *Completion) Fire(s *Scheduler) {
	if c.done {
		panic("sim: Completion fired twice")
	}
	c.done = true
	c.fires++
	for _, w := range c.waiters {
		s.wake(w)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Reset re-arms the completion: it is not done, and the next Fire releases
// whoever waits from now on. A proc the last Fire woke still returns from
// Wait. Only Fire empties the waiter list, so resetting a completion that
// procs are still waiting on panics: they would wait through the round they
// waited for.
func (c *Completion) Reset() {
	if len(c.waiters) > 0 {
		panic("sim: Completion reset with waiters")
	}
	c.done = false
}

// Wait blocks p until the completion fires. Returns immediately if already
// fired.
func (c *Completion) Wait(p *Proc) {
	if c.done {
		return
	}
	for fires := c.fires; c.fires == fires; {
		c.waiters = append(c.waiters, p)
		p.park(parkCompletion, 0, 0)
	}
}
