package mpi

import "testing"

// The dominant figure-sweep pattern: arrivals miss a deep posted queue of
// non-matching exact receives (many outstanding partitioned channels), then
// the matching receive is posted. The index answers the miss without the
// O(n) walk the FIFO scan needed.
func BenchmarkMatchArrivalMissDeepQueue(b *testing.B) {
	var m matcher
	for i := 0; i < 64; i++ {
		m.addPosted(recvFor(1, i, 0))
	}
	inb := inboundFor(2, 999, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if req, scanned := m.matchArrival(inb); req != nil || scanned != 64 {
			b.Fatalf("unexpected match (%v, %d)", req, scanned)
		}
	}
}

func BenchmarkMatchPostedMissDeepQueue(b *testing.B) {
	var m matcher
	for i := 0; i < 64; i++ {
		m.addUnexpected(inboundFor(1, i, 0))
	}
	r := recvFor(2, 999, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if inb, scanned := m.matchPosted(r); inb != nil || scanned != 64 {
			b.Fatalf("unexpected match (%v, %d)", inb, scanned)
		}
	}
}

// Exact-match hit/re-add churn at the queue front — the ping-pong steady
// state of figs 4–12.
func BenchmarkMatchArrivalHitFront(b *testing.B) {
	var m matcher
	r := recvFor(0, 5, 0)
	m.addPosted(r)
	inb := inboundFor(0, 5, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, scanned := m.matchArrival(inb)
		if req == nil || scanned != 1 {
			b.Fatalf("no match (scanned %d)", scanned)
		}
		m.addPosted(req)
	}
}

// TestMatchAllocs pins the three paths above at 0 allocs per call.
func TestMatchAllocs(t *testing.T) {
	var posted, unexpected, front matcher
	for i := 0; i < 64; i++ {
		posted.addPosted(recvFor(1, i, 0))
		unexpected.addUnexpected(inboundFor(1, i, 0))
	}
	front.addPosted(recvFor(0, 5, 0))
	missInb, missRecv, hitInb := inboundFor(2, 999, 0), recvFor(2, 999, 0), inboundFor(0, 5, 0)
	for name, op := range map[string]func(){
		"matchArrival miss, 64 posted":    func() { posted.matchArrival(missInb) },
		"matchPosted miss, 64 unexpected": func() { unexpected.matchPosted(missRecv) },
		"matchArrival hit + re-add": func() {
			req, _ := front.matchArrival(hitInb)
			front.addPosted(req)
		},
	} {
		if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
}
