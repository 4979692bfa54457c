package sim

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"
)

// queueRun drives an eventQueue the way a scheduler does, op by op, beside a
// reference: a slice of the queued events kept sorted by (at, born, seq).
// Every pop and peek is checked against the reference, and the queue's
// invariants after every op.
type queueRun struct {
	t   *testing.T
	q   eventQueue
	ref []*event
	now Time
	seq uint64
}

// order is the total order (at, born, seq), written out apart from the
// queue's own comparator.
func order(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.born, b.born); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (r *queueRun) push(at, born Time) {
	r.seq++
	e := &event{at: at, born: born, seq: r.seq}
	r.q.push(e)
	i, _ := slices.BinarySearchFunc(r.ref, e, order)
	r.ref = slices.Insert(r.ref, i, e)
}

// pop takes the minimum at or before limit from both and compares them.
func (r *queueRun) pop(limit Time) {
	r.t.Helper()
	got := r.q.pop(limit)
	if len(r.ref) == 0 || r.ref[0].at > limit {
		if got != nil {
			r.t.Fatalf("pop(%d) at %d took %+v, want nothing", limit, r.now, *got)
		}
		return
	}
	if want := r.ref[0]; got != want {
		if got == nil {
			r.t.Fatalf("pop(%d) at %d took nothing, want %+v", limit, r.now, *want)
		}
		r.t.Fatalf("pop(%d) at %d took %+v, want %+v", limit, r.now, *got, *want)
	}
	r.ref = r.ref[1:]
	r.now = got.at
}

func (r *queueRun) peek() {
	r.t.Helper()
	at, ok := r.q.peek()
	if len(r.ref) == 0 {
		if ok {
			r.t.Fatalf("peek at %d on an empty queue = %d", r.now, at)
		}
	} else if !ok || at != r.ref[0].at {
		r.t.Fatalf("peek at %d = %d, %v; want %d", r.now, at, ok, r.ref[0].at)
	}
}

// check asserts the queue's invariants: n counts what is queued, last is
// not past the clock, cur holds exactly the events at last in (born, seq)
// order and is reset once drained, every bucket event differs from last in
// its bucket's bit, and mask and the cached minima match the buckets.
func (r *queueRun) check() {
	r.t.Helper()
	q := &r.q
	if q.n != len(r.ref) {
		r.t.Fatalf("queue counts %d events, holds %d", q.n, len(r.ref))
	}
	if q.last > r.now {
		r.t.Fatalf("last %d is past the clock %d", q.last, r.now)
	}
	if q.head == len(q.cur) && q.head != 0 {
		r.t.Fatalf("drained current-time list not reset: head %d", q.head)
	}
	live := q.cur[q.head:]
	for i, e := range live {
		if e.at != q.last {
			r.t.Fatalf("current-time list holds an event at %d, last %d", e.at, q.last)
		}
		if i > 0 && order(live[i-1], e) > 0 {
			r.t.Fatalf("current-time list out of (born, seq) order at %d", i)
		}
	}
	n := len(live)
	for i := 0; i < 64; i++ {
		set := q.mask&(1<<i) != 0
		b := &q.b[i]
		if set != (b.tail != nil) {
			r.t.Fatalf("bucket %d: mask bit %v, chunks %v", i, set, b.tail != nil)
		}
		if b.tail == nil {
			continue
		}
		least := maxTime
		for c, done := b.tail.next, false; !done; c = c.next {
			done = c == b.tail
			if c.n == 0 {
				r.t.Fatalf("bucket %d holds an empty chunk", i)
			}
			for _, s := range c.slots[:c.n] {
				if s.at != s.e.at || bits.Len64(uint64(s.at^q.last))-1 != i {
					r.t.Fatalf("bucket %d holds an event at %d (slot %d), last %d", i, s.e.at, s.at, q.last)
				}
				least = min(least, s.at)
				n++
			}
		}
		if least != b.min {
			r.t.Fatalf("bucket %d caches minimum %d, holds %d", i, b.min, least)
		}
	}
	if n != len(r.ref) {
		r.t.Fatalf("queue holds %d events, reference %d", n, len(r.ref))
	}
}

// delay decodes a span from a byte pair: nothing below 64, so same-time
// pushes are common, else the first byte shifted up by the second, so every
// bucket is reachable.
func delay(a, sh byte) Time {
	if a < 64 {
		return 0
	}
	return Time(a) << (sh % 40)
}

// FuzzEventQueue decodes its bytes into queue operations — pushes at the
// clock plus a delay, barrier-style pushes whose born is before their time,
// same-time bursts, pops (bounded, as RunUntil's are, or not), peeks, sleeps
// that take Sleep's short cut when nothing is due first, and resets that
// hand the drained queue to a new clock at zero, as an Arena does — and
// checks every pop and peek against the reference order (at, born, seq).
func FuzzEventQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The checks cost O(depth) per op, so a run is kept short enough
		// for thousands a second.
		ops = ops[:min(len(ops), 256)]
		r := &queueRun{t: t}
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		for i := 0; i < len(ops); {
			op := ops[i]
			a, b, c, d := arg(i+1), arg(i+2), arg(i+3), arg(i+4)
			switch op % 8 {
			case 0: // push at now + delay
				r.push(r.now+delay(a, b), r.now)
				i += 3
			case 1: // a barrier delivery: born before at, possibly before now
				at := r.now + delay(a, b)
				r.push(at, max(0, at-delay(c, d)))
				i += 5
			case 2:
				r.pop(maxTime)
				i++
			case 3: // RunUntil's pop: nothing past the limit
				r.pop(r.now + delay(a, b))
				i += 3
			case 4:
				r.peek()
				i++
			case 5: // Sleep: the short cut when nothing is due first
				until := r.now + delay(a, b)
				if at, ok := r.q.peek(); !ok || until < at {
					r.now = until
				} else {
					r.push(until, r.now)
				}
				i += 3
			case 6: // a same-time burst
				at := r.now + delay(b, c)
				for k := 0; k <= int(a%8); k++ {
					r.push(at, r.now)
				}
				i += 4
			case 7: // drain, then hand the queue to a clock at zero
				for len(r.ref) > 0 {
					r.pop(maxTime)
				}
				r.q.last, r.now = 0, 0
				i++
			}
			r.check()
		}
		for len(r.ref) > 0 {
			r.pop(maxTime)
			r.check()
		}
		if r.q.pop(maxTime) != nil {
			t.Fatal("a drained queue popped an event")
		}
	})
}
