package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"partmb/internal/sim"
)

// TestSingleFlightCollapsesConcurrentCallers pins the single-flight
// contract a service runner depends on: N concurrent callers of one cold
// key produce exactly one computation, and everyone gets its value.
func TestSingleFlightCollapsesConcurrentCallers(t *testing.T) {
	const n = 8
	rn := New(WithSingleFlight())

	var (
		computed atomic.Int64
		wg       sync.WaitGroup
	)
	// parked is the number of callers committed to the in-flight entry. A
	// caller that has merely been started does not count: had it not looked
	// the key up by the time the computation returns, the ephemeral entry
	// would be gone and it would rightly compute again.
	parked := func() int {
		rn.mu.Lock()
		defer rn.mu.Unlock()
		return rn.cache["cell"].waiters
	}
	fn := func(*sim.Arena) (int, error) {
		computed.Add(1)
		// Hold the cell open until every other caller is parked on it, so
		// when this returns, all n calls resolve from this one computation.
		for parked() < n-1 {
			runtime.Gosched()
		}
		return 42, nil
	}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := doAs(rn, "cell", nil, fn)
			if v != 42 || err != nil {
				t.Errorf("DoAs = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()

	if got := computed.Load(); got != 1 {
		t.Fatalf("computed %d times under single-flight, want 1", got)
	}
	if st := rn.Stats(); st.Runs != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 run and %d memo hits", st, n-1)
	}
}

// TestSingleFlightEntriesAreEphemeral: with WithSingleFlight, a settled
// cell leaves no in-memory entry behind — a later call recomputes (or, in
// a real service, reloads from disk). Without the option, the memo keeps
// the settled entry. This is what bounds a long-lived daemon's memory.
func TestSingleFlightEntriesAreEphemeral(t *testing.T) {
	var computed int
	fn := func(*sim.Arena) (int, error) { computed++; return 7, nil }

	eph := New(WithSingleFlight())
	doAs(eph, "cell", nil, fn)
	doAs(eph, "cell", nil, fn)
	if computed != 2 {
		t.Fatalf("ephemeral runner computed %d times, want 2 (entry must not linger)", computed)
	}
	if st := eph.Stats(); st.Runs != 2 || st.Hits != 0 {
		t.Fatalf("ephemeral stats = %+v", st)
	}

	computed = 0
	memo := New()
	doAs(memo, "cell", nil, fn)
	doAs(memo, "cell", nil, fn)
	if computed != 1 {
		t.Fatalf("memoizing runner computed %d times, want 1", computed)
	}
}

// TestSingleFlightWithDiskCache: the service configuration — ephemeral
// memo over a persistent disk cache. The second call must come from disk,
// not a recomputation, making the disk cache the store of record.
func TestSingleFlightWithDiskCache(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rn := New(WithSingleFlight(), WithDiskCache(d))
	var computed int
	fn := func(*sim.Arena) (diskCell, error) { computed++; return diskCell{Size: 1}, nil }
	if _, err := doAs(rn, "cell", nil, fn); err != nil {
		t.Fatal(err)
	}
	if _, err := doAs(rn, "cell", nil, fn); err != nil {
		t.Fatal(err)
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1 (second call must disk-hit)", computed)
	}
	if st := rn.Stats(); st.Runs != 1 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 run + 1 disk hit", st)
	}
}
