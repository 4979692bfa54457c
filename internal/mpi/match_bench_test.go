package mpi

import "testing"

// The dominant figure-sweep pattern: arrivals miss a deep posted queue of
// non-matching exact receives (many outstanding partitioned channels), then
// the matching receive is posted. The index answers the miss without the
// O(n) walk the FIFO scan needed.
func BenchmarkMatchArrivalMissDeepQueue(b *testing.B) {
	var m matcher
	for i := 0; i < 64; i++ {
		r := recvFor(1, i, 0)
		m.posted.push(r)
	}
	k := inboundFor(2, 999, 0).key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if req, ok, scanned := m.posted.take(k); ok || scanned != 64 {
			b.Fatalf("unexpected match (%v, %d)", req, scanned)
		}
	}
}

func BenchmarkMatchPostedMissDeepQueue(b *testing.B) {
	var m matcher
	for i := 0; i < 64; i++ {
		inb := inboundFor(1, i, 0)
		m.unexpected.push(inb)
	}
	k := recvFor(2, 999, 0).key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inb, ok, scanned := m.unexpected.take(k); ok || scanned != 64 {
			b.Fatalf("unexpected match (%v, %d)", inb, scanned)
		}
	}
}

// Exact-match hit/re-add churn at the queue front — the ping-pong steady
// state of figs 4–12.
func BenchmarkMatchArrivalHitFront(b *testing.B) {
	var m matcher
	r := recvFor(0, 5, 0)
	m.posted.push(r)
	k := inboundFor(0, 5, 0).key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, ok, scanned := m.posted.take(k)
		if !ok || scanned != 1 {
			b.Fatalf("no match (scanned %d)", scanned)
		}
		m.posted.push(req)
	}
}

// TestMatchAllocs pins the three paths above at 0 allocs per call.
func TestMatchAllocs(t *testing.T) {
	var posted, unexpected, front matcher
	for i := 0; i < 64; i++ {
		r, inb := recvFor(1, i, 0), inboundFor(1, i, 0)
		posted.posted.push(r)
		unexpected.unexpected.push(inb)
	}
	hit := recvFor(0, 5, 0)
	front.posted.push(hit)
	miss := matchKey{0, 2, 999}
	for name, op := range map[string]func(){
		"arrival miss, 64 posted":     func() { posted.posted.take(miss) },
		"posting miss, 64 unexpected": func() { unexpected.unexpected.take(miss) },
		"arrival hit + re-add": func() {
			req, _, _ := front.posted.take(hit.key())
			front.posted.push(req)
		},
	} {
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
