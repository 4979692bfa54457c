package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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
	rn := New()
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
	rn := New()
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
	if computed != 2*maxAttempts {
		t.Fatalf("computed %d times, want %d (maxAttempts per call, never cached)", computed, 2*maxAttempts)
	}
	st := rn.Stats()
	if st.Runs != 2*maxAttempts || st.Retries != 2*(maxAttempts-1) {
		t.Fatalf("stats = %+v, want %d runs, %d retries", st, 2*maxAttempts, 2*(maxAttempts-1))
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	rn := New()
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
	rn := New(WithDiskCache(d))
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
	if _, err := os.Stat(filepath.Join(d.dir, key+".json")); !os.IsNotExist(err) {
		t.Fatalf("panicked cell was persisted (stat err %v)", err)
	}
	// Not memoized: the same runner computes the key again.
	v, err := doAs(rn, key, nil, cell)
	if err != nil || v.Size != 7 || computed != 2 {
		t.Fatalf("second call = %+v, %v after %d computations; want the recomputed value", v, err, computed)
	}
}

// flaky fails a cell's first burst(key) attempts transiently, a pure
// function of (key, attempt): the schedule a lost remote worker or a
// recoverable fabric error produces, without depending on which lane runs
// the cell. A burst of maxAttempts or more never recovers.
type flaky struct {
	burst func(key string) int

	mu    sync.Mutex
	tries map[string]int
}

func newFlaky(burst func(key string) int) *flaky {
	return &flaky{burst: burst, tries: map[string]int{}}
}

// do resolves key on rn to v through the flaky schedule.
func (f *flaky) do(rn *Runner, key string, v any) (any, error) {
	return rn.Do(key, func() (any, error) {
		f.mu.Lock()
		f.tries[key]++
		attempt := f.tries[key]
		f.mu.Unlock()
		if attempt <= f.burst(key) {
			return nil, Transientf("flaky (cell %s, attempt %d)", key, attempt)
		}
		return v, nil
	})
}

// hashOf spreads key over [0, n).
func hashOf(key string, n uint32) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % n)
}

// recovering fails a cell's first 0 to maxAttempts-1 attempts, so every
// cell recovers within the retry bound.
func recovering(key string) int { return hashOf(key, maxAttempts) }

// TestSweepDeterministicAcrossWorkerCounts is the determinism acceptance
// check: the same failure schedule produces identical results AND identical
// engine counters at 1 and at 8 workers, because whether an attempt fails
// depends only on (key, attempt), never on scheduling.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]any, Stats) {
		f := newFlaky(recovering)
		rn := New(Workers(workers))
		res, err := rn.Map(context.Background(), 32, func(_ context.Context, i int) (any, error) {
			return f.do(rn, fmt.Sprintf("cell-%d", i), i*i)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rn.Stats()
	}
	res1, st1 := run(1)
	res8, st8 := run(8)
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("results differ between worker counts:\n1: %v\n8: %v", res1, res8)
	}
	if st1.Runs != st8.Runs || st1.Retries != st8.Retries {
		t.Fatalf("counters differ between worker counts:\n1: %+v\n8: %+v", st1, st8)
	}
	if st1.Retries == 0 {
		t.Fatalf("schedule failed nothing (stats %+v) — the test is vacuous", st1)
	}
	if !reflect.DeepEqual(st1.Attempts, st8.Attempts) {
		t.Fatalf("attempt maps differ:\n1: %v\n8: %v", st1.Attempts, st8.Attempts)
	}
}

// TestLPTSweepReportsSmallestFaultedIndex is the scheduler's fail-fast
// determinism check under transient failures: a quarter of the cells never
// recover, so their exhausted retries are real cell errors, and with an
// adversarial cost function the engine dispatches the LARGEST indices first
// — yet the sweep must always report the error of the smallest failing
// index, at every worker count.
func TestLPTSweepReportsSmallestFaultedIndex(t *testing.T) {
	const n = 32
	key := func(i int) string { return fmt.Sprintf("cell-%02d", i) }
	down := func(key string) int {
		if hashOf(key, 4) == 0 {
			return maxAttempts
		}
		return 0
	}
	want := -1
	for i := 0; i < n; i++ {
		if down(key(i)) > 0 {
			want = i
			break
		}
	}
	if want < 0 {
		t.Fatalf("no cell in %d is down — pick another schedule", n)
	}
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 5; trial++ {
			f := newFlaky(down)
			rn := New(Workers(workers))
			bigFirst := func(i int) float64 { return float64(i + 1) }
			_, err := rn.Sweep(context.Background(), n, bigFirst, func(_ context.Context, i int) (any, error) {
				return f.do(rn, key(i), i)
			})
			if err == nil || !strings.Contains(err.Error(), "(cell "+key(want)+",") {
				t.Fatalf("workers=%d trial %d: err = %v, want the failure at %s", workers, trial, err, key(want))
			}
		}
	}
}

// TestFaultedSweepMatchesFaultFree: a sweep whose cells fail transiently
// returns the same values as a failure-free one — failures cost attempts,
// not correctness.
func TestFaultedSweepMatchesFaultFree(t *testing.T) {
	sweep := func(burst func(string) int) ([]any, Stats) {
		f := newFlaky(burst)
		rn := New(Workers(4))
		res, err := rn.Map(context.Background(), 24, func(_ context.Context, i int) (any, error) {
			return f.do(rn, fmt.Sprintf("cell-%d", i), 3*i)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, rn.Stats()
	}
	clean, _ := sweep(func(string) int { return 0 })
	faulted, st := sweep(recovering)
	if !reflect.DeepEqual(clean, faulted) {
		t.Fatalf("faulted sweep changed results:\nclean:   %v\nfaulted: %v", clean, faulted)
	}
	if st.Retries == 0 {
		t.Fatal("no attempt failed — the comparison is vacuous")
	}
}
