package sim

import "math/rand"

// Arena hands what one simulation leaves behind to the next one built from
// it: the coroutines of its finished procs, its event freelist, its event
// queue's buckets and chunks, the capacity of its proc list and cross-shard
// outbox, the random generators its noise models drew from, and whatever the
// layer above asked it to keep (Keep): the MPI world, whose ranks, matchers,
// free lists and partitioned requests the next world is built from. A cell
// that forks worker teams every iteration pays for those once per arena
// instead of once per cell.
//
// A shard group built from the arena (NewShardGroup) draws on one slot per
// shard: shard 0 on the arena itself, so sequential simulations and shard
// groups on one arena share what they keep, the MPI world included, and
// shard i > 0 on a sub-arena of its own that the arena makes on first use
// and closes with it.
//
// New is the only way in: a Scheduler from a.New() starts with whatever the
// previous scheduler from a gave back. A drive that drains cleanly — every
// proc finished — gives back its idle runners (re-pointed at the next
// scheduler, not stopped), its free events and what it was asked to Keep. A
// dead drive (a deadlock, or a panic unwinding through it) stops every
// runner instead, as a scheduler without an arena does, so it discards what
// it borrowed. What the previous scheduler still holds because it never
// finished a drive is reclaimed — its coroutines stopped — by the next New
// or by Close.
//
// A nil *Arena is the empty arena: (*Arena)(nil).New() is New(), which keeps
// nothing, and Rand builds a fresh generator. An Arena serves one simulation
// at a time and is not safe for concurrent use; the goroutine using it may
// change from one simulation to the next. Close stops the coroutines it
// holds.
type Arena struct {
	idle   []*runner
	free   []*event
	queue  *eventQueue
	procs  []*Proc
	outbox []crossEvent

	// rngs are the generators Rand has made; the first lent of them are in
	// use until the next New or Close.
	rngs []*rand.Rand
	lent int

	// kept is what the last scheduler to drain cleanly was asked to Keep,
	// until the next New hands it on (see Scheduler.Kept).
	kept any

	// last is the scheduler the last New returned. While it has not given
	// back (its arena field still points here) it holds the runners.
	last *Scheduler

	// counts sums the event counts of the schedulers that gave back or
	// discarded (see Events).
	counts EventCounts

	// slots[i-1] is the slot of shard i of the shard groups built from the
	// arena (see slot).
	slots []*Arena
}

// New returns an empty scheduler with the clock at zero that starts with
// what the arena holds.
func (a *Arena) New() *Scheduler {
	s := &Scheduler{arena: a}
	if a != nil {
		a.reclaim()
		s.idle, s.free, s.queue, s.procs, s.outbox, s.kept = a.idle, a.free, a.queue, a.procs, a.outbox, a.kept
		a.idle, a.free, a.queue, a.procs, a.outbox, a.kept = nil, nil, nil, nil, nil, nil
		for _, r := range s.idle {
			r.s = s
		}
		a.last = s
	}
	if s.queue == nil {
		s.queue = new(eventQueue)
	}
	return s
}

// Rand returns a generator seeded with seed: it yields the stream
// rand.New(rand.NewSource(seed)) yields. The generator is the caller's until
// the arena's next New or Close, which hand it to someone else.
func (a *Arena) Rand(seed int64) *rand.Rand {
	if a == nil {
		return rand.New(rand.NewSource(seed))
	}
	if a.lent == len(a.rngs) {
		a.rngs = append(a.rngs, rand.New(rand.NewSource(seed)))
	} else {
		a.rngs[a.lent].Seed(seed)
	}
	a.lent++
	return a.rngs[a.lent-1]
}

// slot returns the arena shard i of a group built from a draws on: a itself
// for shard 0, a sub-arena of a for the others. The nil arena's slots are
// all nil.
func (a *Arena) slot(i int) *Arena {
	if a == nil || i == 0 {
		return a
	}
	for len(a.slots) < i {
		a.slots = append(a.slots, new(Arena))
	}
	return a.slots[i-1]
}

// Events returns the summed event counts of every scheduler built from the
// arena, the shards of its shard groups included, whose last drive has
// ended, drained or dead, since the arena was made or closed. A cell run on
// a fresh arena thus reports the events its simulations popped, the sleeps
// that skipped the queue and the coroutine resumes.
func (a *Arena) Events() EventCounts {
	c := a.counts
	for _, sub := range a.slots {
		c.add(sub.counts)
	}
	return c
}

// Close stops the coroutines the arena and its shard slots hold, those of a
// scheduler that never finished its drive included, and empties it. A
// closed arena may be used again; it starts empty.
func (a *Arena) Close() {
	if a == nil {
		return
	}
	for _, sub := range a.slots {
		sub.Close()
	}
	a.reclaim()
	for _, r := range a.idle {
		r.stop()
	}
	*a = Arena{}
}

// reclaim takes back everything the last scheduler borrowed. One that gave
// back after a clean drain, or discarded after a dead one, holds nothing; one
// that never finished a drive has its coroutines stopped. Every generator
// is free again.
func (a *Arena) reclaim() {
	if s := a.last; s != nil && s.arena == a {
		s.arena = nil
		s.stopRunners()
	}
	a.last = nil
	a.lent = 0
}

// release ends the scheduler's hold on its coroutines and events once its
// last drive is over. After a clean drain the idle runners, the event
// freelist, the queue's storage, the proc-list and outbox capacity and what
// Keep was given go back to the arena; without an arena, or after a dead
// drive, every runner is stopped and the rest is dropped.
func (s *Scheduler) release(clean bool) {
	a := s.arena
	s.arena = nil
	if a != nil {
		a.counts.add(s.counts)
	}
	if a == nil || !clean {
		s.stopRunners()
		return
	}
	// The queue has drained, and so has the outbox at the last barrier; the
	// next scheduler's clock starts at zero.
	s.queue.last = 0
	a.idle, a.free, a.queue, a.procs, a.outbox, a.kept = s.idle, s.free, s.queue, s.procs[:0], s.outbox, s.keep
	s.idle, s.free, s.queue, s.procs, s.outbox = nil, nil, nil, nil, nil
}

// Keep asks the scheduler to hand v to the next scheduler built from its
// arena, which gets it from Kept, if its drive drains cleanly. A later Keep
// replaces v. Without an arena, or when the drive dies, v is dropped: a layer
// above the kernel keeps its state across simulations this way — the MPI
// world keeps its ranks — and a simulation that deadlocked or panicked hands
// nothing on.
func (s *Scheduler) Keep(v any) { s.keep = v }

// Kept returns what the previous scheduler from this one's arena was asked to
// Keep, if that scheduler drained cleanly, and forgets it: only the first
// caller gets it. It is nil on a scheduler without an arena. The simulation
// that kept the value is over, so the caller may reuse it; code that builds
// two schedulers from one arena must be done with the first one's state
// before it builds the second.
func (s *Scheduler) Kept() any {
	v := s.kept
	s.kept = nil
	return v
}
