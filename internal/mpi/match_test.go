package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func recvFor(src, tag, ctx int) *Request {
	return &Request{kind: recvReq, peer: src, tag: tag, ctx: ctx}
}

func inboundFor(src, tag, ctx int) *inbound {
	return &inbound{src: src, tag: tag, ctx: ctx}
}

func TestMatchesPredicate(t *testing.T) {
	cases := []struct {
		req           *Request
		src, tag, ctx int
		want          bool
	}{
		{recvFor(1, 2, 0), 1, 2, 0, true},
		{recvFor(1, 2, 0), 1, 3, 0, false}, // tag mismatch
		{recvFor(1, 2, 0), 2, 2, 0, false}, // source mismatch
		{recvFor(1, 2, 0), 1, 2, 1, false}, // context mismatch
		{recvFor(1, 2, 0), 2, 1, 0, false}, // source and tag swapped
	}
	for i, c := range cases {
		var m matcher
		m.posted.push(c.req)
		if _, got, _ := m.posted.take(inboundFor(c.src, c.tag, c.ctx).key()); got != c.want {
			t.Errorf("case %d: matched = %v, want %v", i, got, c.want)
		}
	}
}

func TestMatchArrivalFIFO(t *testing.T) {
	var m matcher
	first := recvFor(0, 5, 0)
	second := recvFor(0, 5, 0)
	m.posted.push(first)
	m.posted.push(second)
	req, _, scanned := m.posted.take(inboundFor(0, 5, 0).key())
	if req != first {
		t.Fatal("arrival did not match the earliest posted receive")
	}
	if scanned != 1 {
		t.Fatalf("scanned = %d, want 1", scanned)
	}
	if len(m.posted.slots) != 1 {
		t.Fatalf("posted queue = %d after match, want 1", len(m.posted.slots))
	}
	req2, _, _ := m.posted.take(inboundFor(0, 5, 0).key())
	if req2 != second {
		t.Fatal("second arrival did not match the remaining receive")
	}
}

func TestMatchPostedFIFO(t *testing.T) {
	var m matcher
	a := inboundFor(0, 5, 0)
	b := inboundFor(0, 5, 0)
	m.unexpected.push(a)
	m.unexpected.push(b)
	got, _, _ := m.unexpected.take(recvFor(0, 5, 0).key())
	if got != a {
		t.Fatal("posted receive did not take the earliest unexpected message")
	}
	if len(m.unexpected.slots) != 1 {
		t.Fatalf("unexpected queue = %d, want 1", len(m.unexpected.slots))
	}
}

func TestMatchScansPastNonMatching(t *testing.T) {
	var m matcher
	for tag := 1; tag <= 3; tag++ {
		r := recvFor(0, tag, 0)
		m.posted.push(r)
	}
	req, _, scanned := m.posted.take(inboundFor(0, 3, 0).key())
	if req == nil || req.tag != 3 {
		t.Fatalf("matched %v, want tag 3", req)
	}
	if scanned != 3 {
		t.Fatalf("scanned = %d, want 3 (full traversal)", scanned)
	}
}

func TestMatchMissScansAll(t *testing.T) {
	var m matcher
	for tag := 1; tag <= 2; tag++ {
		r := recvFor(0, tag, 0)
		m.posted.push(r)
	}
	req, ok, scanned := m.posted.take(inboundFor(0, 9, 0).key())
	if ok || req != nil {
		t.Fatal("matched a non-matching arrival")
	}
	if scanned != 2 {
		t.Fatalf("scanned = %d, want 2", scanned)
	}
	if _, _, scanned := (&keyedFIFO[*Request]{}).take(matchKey{}); scanned != 0 {
		t.Fatalf("scanned = %d on an empty queue, want 0", scanned)
	}
}

// Property: after matching any random sequence of posts and arrivals with
// identical envelopes, queue sizes never go negative and total elements are
// conserved (each match consumes one from each side).
func TestQuickMatcherConservation(t *testing.T) {
	f := func(ops []bool) bool {
		var m matcher
		matched := 0
		for _, isPost := range ops {
			if isPost {
				r := recvFor(0, 0, 0)
				if _, ok, _ := m.unexpected.take(r.key()); ok {
					matched++
				} else {
					m.posted.push(r)
				}
			} else {
				inb := inboundFor(0, 0, 0)
				if _, ok, _ := m.posted.take(inb.key()); ok {
					matched++
				} else {
					m.unexpected.push(inb)
				}
			}
		}
		posted, unexpected := len(m.posted.slots), len(m.unexpected.slots)
		// One queue must always be empty (same envelope ⇒ immediate match).
		if posted > 0 && unexpected > 0 {
			return false
		}
		return posted+unexpected+2*matched == len(ops)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fifoMatcher is the pre-index reference implementation: plain FIFO scans
// over both queues, the behaviour the indexed matcher must reproduce bit for
// bit (match identity, removal order, and scanned counts).
type fifoMatcher struct {
	posted     []*Request
	unexpected []*inbound
}

func (m *fifoMatcher) matchArrival(inb *inbound) (*Request, int) {
	for i, r := range m.posted {
		if r.ctx == inb.ctx && r.peer == inb.src && r.tag == inb.tag {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return r, i + 1
		}
	}
	return nil, len(m.posted)
}

func (m *fifoMatcher) matchPosted(r *Request) (*inbound, int) {
	for i, u := range m.unexpected {
		if r.ctx == u.ctx && r.peer == u.src && r.tag == u.tag {
			m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
			return u, i + 1
		}
	}
	return nil, len(m.unexpected)
}

// Property: the indexed queues preserve MPI non-overtaking order and scanned
// accounting exactly as the plain FIFO scan does. Drives the indexed matcher
// and the reference side by side through seeded random op streams over a
// small envelope space (guaranteeing collisions and deep queues).
func TestMatcherEquivalentToFIFOReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var idx matcher
		var ref fifoMatcher
		for op := 0; op < 400; op++ {
			src, tag, ctx := rng.Intn(3), rng.Intn(3), rng.Intn(2)
			if rng.Intn(2) == 0 {
				ri := recvFor(src, tag, ctx)
				ri.size = int64(op) // identity marker
				rr := recvFor(src, tag, ctx)
				rr.size = int64(op)
				gi, _, si := idx.unexpected.take(ri.key())
				gr, sr := ref.matchPosted(rr)
				if si != sr {
					t.Fatalf("seed %d op %d: posting scanned %d, reference %d", seed, op, si, sr)
				}
				if (gi == nil) != (gr == nil) {
					t.Fatalf("seed %d op %d: posting hit mismatch (%v vs %v)", seed, op, gi, gr)
				}
				if gi != nil && gi.size != gr.size {
					t.Fatalf("seed %d op %d: posting took different messages: %+v vs %+v", seed, op, gi, gr)
				}
				if gi == nil {
					idx.posted.push(ri)
					ref.posted = append(ref.posted, rr)
				}
			} else {
				ii := inboundFor(src, tag, ctx)
				ii.size = int64(op) // identity marker
				ir := inboundFor(src, tag, ctx)
				ir.size = int64(op)
				gi, _, si := idx.posted.take(ii.key())
				gr, sr := ref.matchArrival(ir)
				if si != sr {
					t.Fatalf("seed %d op %d: arrival scanned %d, reference %d", seed, op, si, sr)
				}
				if (gi == nil) != (gr == nil) {
					t.Fatalf("seed %d op %d: arrival hit mismatch", seed, op)
				}
				if gi != nil && gi.size != gr.size {
					t.Fatalf("seed %d op %d: arrival took different receives: %+v vs %+v", seed, op, gi, gr)
				}
				if gi == nil {
					idx.unexpected.push(ii)
					ref.unexpected = append(ref.unexpected, ir)
				}
			}
			if len(idx.posted.slots) != len(ref.posted) || len(idx.unexpected.slots) != len(ref.unexpected) {
				t.Fatalf("seed %d op %d: queue depths diverged (%d/%d vs %d/%d)",
					seed, op, len(idx.posted.slots), len(idx.unexpected.slots), len(ref.posted), len(ref.unexpected))
			}
		}
		// Drain both and confirm identical residual order.
		for i, u := range idx.unexpected.slots {
			if u.size != ref.unexpected[i].size {
				t.Fatalf("seed %d: residual unexpected[%d] differs", seed, i)
			}
		}
		for i, r := range idx.posted.slots {
			if r.size != ref.posted[i].size {
				t.Fatalf("seed %d: residual posted[%d] differs", seed, i)
			}
		}
	}
}

// countsMatch reports how q's occupancy index differs from its slots, or
// nil when every key's count equals its number of slots.
func countsMatch[T keyed](q *keyedFIFO[T]) error {
	want := map[matchKey]int{}
	for _, v := range q.slots {
		want[v.key()]++
	}
	if len(want) != len(q.count) {
		return fmt.Errorf("index has %d keys, queue has %d", len(q.count), len(want))
	}
	for k, n := range want {
		if q.count[k] != n {
			return fmt.Errorf("index[%v] = %d, queue has %d", k, q.count[k], n)
		}
	}
	return nil
}

// The index must stay consistent under heavy churn: counts in the maps always
// equal the occupancy of the authoritative slots.
func TestMatcherIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var m matcher
	for op := 0; op < 2000; op++ {
		src, tag, ctx := rng.Intn(4), rng.Intn(4), rng.Intn(2)
		switch rng.Intn(2) {
		case 0:
			r := recvFor(src, tag, ctx)
			if _, ok, _ := m.unexpected.take(r.key()); !ok {
				m.posted.push(r)
			}
		case 1:
			inb := inboundFor(src, tag, ctx)
			if _, ok, _ := m.posted.take(inb.key()); !ok {
				m.unexpected.push(inb)
			}
		}
		if err := countsMatch(&m.posted); err != nil {
			t.Fatalf("op %d: posted: %v", op, err)
		}
		if err := countsMatch(&m.unexpected); err != nil {
			t.Fatalf("op %d: unexpected: %v", op, err)
		}
	}
}
