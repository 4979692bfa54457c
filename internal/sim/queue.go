package sim

import (
	"cmp"
	"math/bits"
	"slices"
)

// eventQueue is a monotone radix heap of events in the total order
// (at, born, seq). Virtual time never runs backwards, so the queue never has
// to hold an event earlier than the latest minimum taken, last, and it keys
// each event by the highest bit in which its time differs from last: an
// event at at > last sits in bucket bits.Len64(at^last)-1, and one at exactly
// last sits in the current-time list cur. Every event in bucket i is later
// than every event in a lower bucket, so the minimum is in the lowest
// non-empty bucket (mask has a bit per non-empty bucket), and no push
// compares anything.
//
// Taking a minimum when cur is empty refills it: last advances to the lowest
// non-empty bucket's least time, whose events move to cur and whose others
// move to lower buckets, since relative to the new last they differ in a
// lower bit. An event moves at most once per bucket below its first, in
// practice once or twice. Only cur orders events by (born, seq), the
// same-time tiebreak: a refill moves events there in the order they were
// filed, which is that order unless a barrier delivered some, and sorts them
// once if not; a push at last inserts in place (at the end, unless the
// barrier delivered it with an earlier born).
//
// Buckets are lists of fixed-size chunks. Drained chunks go to a free list
// that stays with the queue, and the queue goes through an Arena to the next
// scheduler, as events do.
type eventQueue struct {
	// last is the time of the latest minimum taken; no queued event is
	// earlier, and it never passes the clock (peeking does not move it).
	last Time
	// cur holds the events at exactly last in (born, seq) order from head;
	// it is reset to empty whenever it drains, so same-time ping-pong reuses
	// its front instead of growing it.
	cur  []*event
	head int
	// n counts the events queued, mask the non-empty buckets.
	n    int
	mask uint64
	b    [64]bucket
	free *chunk
}

// bucket is a ring of chunks reached through its newest, tail, whose next is
// the oldest, so a push appends to tail and a refill reads the events in the
// order they were filed. min is the least time in the bucket while its mask
// bit is set; a bucket whose bit is clear has no chunks.
type bucket struct {
	tail *chunk
	min  Time
}

// chunkSlots is the slot count of a chunk: 7 slots and the two header words
// make a chunk 128 bytes, one allocation size class. Small chunks waste
// little in the many buckets a shallow queue leaves nearly empty.
const chunkSlots = 7

// chunk holds up to chunkSlots events of one bucket, each beside its time, so
// a refill reads no event to redistribute it. next links the bucket's ring,
// or the free list. A freed chunk's slots are not cleared: they point only
// at events, which the scheduler recycles anyway.
type chunk struct {
	slots [chunkSlots]slot
	n     int
	next  *chunk
}

type slot struct {
	at Time
	e  *event
}

// push queues e. e.at must not be before last, which holds whenever e.at is
// not before the clock.
func (q *eventQueue) push(e *event) {
	q.n++
	if e.at == q.last {
		q.pushCur(e)
		return
	}
	q.pushBucket(e.at, e)
}

// pushCur inserts e, at last, into cur in (born, seq) order.
func (q *eventQueue) pushCur(e *event) {
	i := len(q.cur)
	q.cur = append(q.cur, e)
	for i > q.head && cmpSameTime(e, q.cur[i-1]) < 0 {
		q.cur[i] = q.cur[i-1]
		i--
	}
	q.cur[i] = e
}

// cmpSameTime is the order of events at one time, (born, seq); seq is
// unique, so it never returns 0.
func cmpSameTime(a, b *event) int {
	if a.born != b.born {
		return cmp.Compare(a.born, b.born)
	}
	return cmp.Compare(a.seq, b.seq)
}

// pushBucket files e, at at != last, under the highest bit at differs from
// last in.
func (q *eventQueue) pushBucket(at Time, e *event) {
	i := bits.Len64(uint64(at^q.last)) - 1
	b := &q.b[i]
	if q.mask&(1<<i) == 0 {
		q.mask |= 1 << i
		b.min = at
	} else if at < b.min {
		b.min = at
	}
	c := b.tail
	if c == nil || c.n == chunkSlots {
		nc := q.free
		if nc != nil {
			q.free = nc.next
		} else {
			nc = new(chunk)
		}
		if c == nil {
			nc.next = nc
		} else {
			nc.next, c.next = c.next, nc
		}
		b.tail, c = nc, nc
	}
	c.slots[c.n] = slot{at, e}
	c.n++
}

// peek returns the time of the minimum without taking it; ok is false on an
// empty queue. It leaves last where it is: a push at the clock may still
// come in below the minimum it reports.
func (q *eventQueue) peek() (at Time, ok bool) {
	if q.head < len(q.cur) {
		return q.last, true
	}
	if q.mask == 0 {
		return 0, false
	}
	return q.b[bits.TrailingZeros64(q.mask)].min, true
}

// pop takes the minimum if it is at or before limit, and returns nil
// otherwise (an empty queue included), without moving last.
func (q *eventQueue) pop(limit Time) *event {
	if q.head == len(q.cur) {
		if q.mask == 0 {
			return nil
		}
		i := bits.TrailingZeros64(q.mask)
		b := &q.b[i]
		if b.min > limit {
			return nil
		}
		if c := b.tail; c.n == 1 && c.next == c {
			// A lone event needs no refill: it is the minimum.
			e := c.slots[0].e
			c.n, c.next, q.free = 0, q.free, c
			b.tail = nil
			q.mask &^= 1 << i
			q.last = b.min
			q.n--
			return e
		}
		q.refill(i)
	} else if q.last > limit {
		return nil
	}
	e := q.cur[q.head]
	q.cur[q.head] = nil
	if q.head++; q.head == len(q.cur) {
		q.cur, q.head = q.cur[:0], 0
	}
	q.n--
	return e
}

// refill advances last to bucket i's least time and empties the bucket: its
// events at that time go to cur, sorted once unless they came in order, and
// the rest to lower buckets. cur is empty and bucket i is the lowest
// non-empty one.
func (q *eventQueue) refill(i int) {
	b := &q.b[i]
	m := b.min
	tail := b.tail
	b.tail = nil
	q.mask &^= 1 << i
	q.last = m
	for c, done := tail.next, false; !done; {
		for _, s := range c.slots[:c.n] {
			if s.at == m {
				q.cur = append(q.cur, s.e)
			} else {
				q.pushBucket(s.at, s.e)
			}
		}
		next := c.next
		done = c == tail
		c.n, c.next, q.free = 0, q.free, c
		c = next
	}
	if !slices.IsSortedFunc(q.cur, cmpSameTime) {
		slices.SortFunc(q.cur, cmpSameTime)
	}
}
