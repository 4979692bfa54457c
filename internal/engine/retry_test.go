package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"partmb/internal/sim"
)

// TestSharedCellRecoversAfterSiblingFailure is the poisoning regression: a
// keyed cell aborted mid-computation because a sibling cell failed first
// (so it returns its task context's cancellation error) must stay
// re-runnable on the same Runner. The old cache memoized the cancellation
// under the cell's key forever. The shared cell sits at the higher index:
// under the failure-bound discipline (see schedule.go) only cells above the
// failing index are cancelled.
func TestSharedCellRecoversAfterSiblingFailure(t *testing.T) {
	rn := New(Workers(2))
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := rn.Map(context.Background(), 2, func(ctx context.Context, i int) (any, error) {
		if i == 0 {
			<-started // fail only once the shared cell is mid-flight
			return nil, boom
		}
		return rn.Do("shared", func() (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
	})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep err = %v, want boom", err)
	}
	v, err := rn.Do("shared", func() (any, error) { return "recomputed", nil })
	if err != nil || v != "recomputed" {
		t.Fatalf("shared cell after abort = %v, %v — the cancellation was memoized", v, err)
	}
}

func TestDoDoesNotCacheCancellation(t *testing.T) {
	for _, cerr := range []error{context.Canceled, context.DeadlineExceeded} {
		rn := New()
		var computed int
		for i := 0; i < 2; i++ {
			_, err := rn.Do("k", func() (any, error) { computed++; return nil, cerr })
			if !errors.Is(err, cerr) {
				t.Fatalf("%v: err = %v", cerr, err)
			}
		}
		if computed != 2 {
			t.Fatalf("%v: computed %d times, want 2 (cancellations must not be cached)", cerr, computed)
		}
	}
}

// TestDeadlineRanksBelowRealError: a cell that reports a cancellation-class
// error (here a spontaneous DeadlineExceeded at the lower index) must not
// mask the real error elsewhere in the grid — real failures outrank
// cancellations regardless of index.
func TestDeadlineRanksBelowRealError(t *testing.T) {
	rn := New(Workers(2))
	boom := errors.New("boom")
	started := make(chan struct{})
	_, err := rn.Map(context.Background(), 2, func(ctx context.Context, i int) (any, error) {
		if i == 1 {
			close(started)
			return nil, boom
		}
		<-started // both cells are dispatched before either failure records
		return nil, context.DeadlineExceeded
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestTransientRetriesThenSucceeds(t *testing.T) {
	rn := New(WithRetry(RetryPolicy{MaxAttempts: 4}))
	attempts := 0
	v, err := rn.Do("k", func() (any, error) {
		attempts++
		if attempts < 3 {
			return nil, Transientf("flaky attempt %d", attempts)
		}
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("Do = %v, %v", v, err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	st := rn.Stats()
	if st.Runs != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 3 runs, 2 retries", st)
	}
	if st.Attempts["k"] != 3 {
		t.Fatalf("Attempts = %v, want k:3", st.Attempts)
	}
	// The eventual success is memoized like any other value.
	if _, err := rn.Do("k", func() (any, error) {
		t.Error("recomputed a cell that succeeded")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTransientExhaustedNotCached(t *testing.T) {
	rn := New(WithRetry(RetryPolicy{MaxAttempts: 2}))
	var computed int
	for i := 0; i < 2; i++ {
		_, err := rn.Do("k", func() (any, error) {
			computed++
			return nil, Transient(errors.New("still down"))
		})
		if !IsTransient(err) {
			t.Fatalf("err = %v, want transient", err)
		}
	}
	if computed != 4 {
		t.Fatalf("computed %d times, want 4 (two attempts per call, never cached)", computed)
	}
	st := rn.Stats()
	if st.Runs != 4 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want 4 runs, 2 retries", st)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	rn := New(WithRetry(RetryPolicy{MaxAttempts: 5}))
	var computed int
	boom := errors.New("deterministic failure")
	_, err := rn.Do("k", func() (any, error) { computed++; return nil, boom })
	if !errors.Is(err, boom) || computed != 1 {
		t.Fatalf("err = %v after %d attempts, want boom after 1", err, computed)
	}
	if st := rn.Stats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
}

func TestErrorClassification(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	base := errors.New("link down")
	terr := Transient(base)
	if !IsTransient(terr) || !errors.Is(terr, base) {
		t.Fatalf("Transient wrapping broken: %v", terr)
	}
	if IsTransient(base) {
		t.Fatal("bare error classified transient")
	}
	if !IsCancellation(context.Canceled) || !IsCancellation(fmt.Errorf("cell: %w", context.DeadlineExceeded)) {
		t.Fatal("cancellation flavours not recognised")
	}
	if IsCancellation(base) {
		t.Fatal("bare error classified as cancellation")
	}
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{nil, true},
		{base, true},
		{terr, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
	} {
		if got := cacheable(tc.err); got != tc.want {
			t.Errorf("cacheable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// A cell that panics — here the way a bad spec does it, from inside a proc
// of a simulation the cell drives — resolves to an error carrying the
// original panic value. It is not retried, not memoized (the next caller
// computes again) and never reaches the disk cache.
func TestPanickingCellIsAnUncachedError(t *testing.T) {
	d, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "deadbeef"
	rn := New(WithDiskCache(d), WithRetry(RetryPolicy{MaxAttempts: 4}))
	computed := 0
	cell := func(*sim.Arena) (diskCell, error) {
		computed++
		if computed > 1 {
			return diskCell{Size: 7}, nil
		}
		s := sim.New()
		s.Spawn("bad", func(p *sim.Proc) {
			p.Sleep(sim.Microsecond)
			panic("spec tripped an invariant")
		})
		return diskCell{}, s.Run()
	}
	_, err = doAs(rn, key, nil, cell)
	var pe *panicError
	if !errors.As(err, &pe) || pe.value != "spec tripped an invariant" {
		t.Fatalf("err = %v, want a panicError with the proc's panic value", err)
	}
	if IsTransient(err) || computed != 1 {
		t.Fatalf("panic was retried: transient=%v, computed=%d", IsTransient(err), computed)
	}
	if st := rn.Stats(); st.Retries != 0 || st.DiskWrites != 0 {
		t.Fatalf("stats after a panic: %d retries, %d disk writes; want 0 and 0", st.Retries, st.DiskWrites)
	}
	if _, err := os.Stat(filepath.Join(d.Dir(), key+".json")); !os.IsNotExist(err) {
		t.Fatalf("panicked cell was persisted (stat err %v)", err)
	}
	// Not memoized: the same runner computes the key again.
	v, err := doAs(rn, key, nil, cell)
	if err != nil || v.Size != 7 || computed != 2 {
		t.Fatalf("second call = %+v, %v after %d computations; want the recomputed value", v, err, computed)
	}
}
