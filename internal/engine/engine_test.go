package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGridFillsAllCells(t *testing.T) {
	rn := New(Workers(4))
	cells, err := rn.Grid(context.Background(), 3, 5, nil, func(_ context.Context, r, c int) (any, error) {
		return r*10 + c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			if cells[r][c] != r*10+c {
				t.Fatalf("cell (%d,%d) = %v", r, c, cells[r][c])
			}
		}
	}
	st := rn.Stats()
	if st.Cells != 15 {
		t.Fatalf("Cells = %d, want 15", st.Cells)
	}
}

func TestGridEmpty(t *testing.T) {
	rn := New()
	cells, err := rn.Grid(context.Background(), 0, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("expected empty grid, got %v", cells)
	}
}

func TestGridPropagatesError(t *testing.T) {
	rn := New(Workers(4))
	boom := errors.New("boom")
	_, err := rn.Grid(context.Background(), 2, 2, nil, func(_ context.Context, r, c int) (any, error) {
		if r == 1 && c == 1 {
			return nil, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestGridStopsSchedulingAfterError is the fail-fast satellite: after the
// first error, outstanding cells must not be scheduled.
func TestGridStopsSchedulingAfterError(t *testing.T) {
	rn := New(Workers(2))
	var calls int64
	_, err := rn.Grid(context.Background(), 100, 10, nil, func(_ context.Context, r, c int) (any, error) {
		atomic.AddInt64(&calls, 1)
		if r == 0 {
			return nil, fmt.Errorf("early failure")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := atomic.LoadInt64(&calls); n >= 1000 {
		t.Fatalf("all %d cells ran despite early error", n)
	}
}

// TestGridCancelsRunningCells verifies the context handed to cells is
// cancelled promptly on first error, so long-running cells can abort.
func TestGridCancelsRunningCells(t *testing.T) {
	rn := New(Workers(2))
	boom := errors.New("boom")
	_, err := rn.Grid(context.Background(), 1, 2, nil, func(ctx context.Context, r, c int) (any, error) {
		if c == 0 {
			return nil, boom
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("cell was not cancelled")
		}
	})
	// The real error must win over the cancellation error regardless of
	// which cell reports first.
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestGridFirstErrorDeterministic: the reported error is the one from the
// smallest row-major index, independent of completion order.
func TestGridFirstErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rn := New(Workers(8))
		_, err := rn.Grid(context.Background(), 4, 4, nil, func(_ context.Context, r, c int) (any, error) {
			i := r*4 + c
			if i == 3 || i == 12 {
				// The later-dispatched failure completes first.
				if i == 3 {
					time.Sleep(2 * time.Millisecond)
				}
				return nil, fmt.Errorf("cell %d failed", i)
			}
			return 0, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("trial %d: err = %v, want cell 3 failed", trial, err)
		}
	}
}

func TestGridHonoursExternalCancel(t *testing.T) {
	rn := New(Workers(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rn.Grid(ctx, 10, 10, nil, func(_ context.Context, r, c int) (any, error) {
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	const bound = 3
	rn := New(Workers(bound))
	var cur, max int64
	_, err := rn.Map(context.Background(), 64, func(_ context.Context, i int) (any, error) {
		n := atomic.AddInt64(&cur, 1)
		for {
			m := atomic.LoadInt64(&max)
			if n <= m || atomic.CompareAndSwapInt64(&max, m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := atomic.LoadInt64(&max); m > bound {
		t.Fatalf("observed %d concurrent cells, bound is %d", m, bound)
	}
}

// TestDoSingleflight: concurrent Do calls under one key compute exactly
// once and share the result.
func TestDoSingleflight(t *testing.T) {
	rn := New()
	var computed int64
	var wg sync.WaitGroup
	results := make([]any, 32)
	for i := range results {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := rn.Do("k", func() (any, error) {
				atomic.AddInt64(&computed, 1)
				time.Sleep(time.Millisecond)
				return "value", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}()
	}
	wg.Wait()
	if n := atomic.LoadInt64(&computed); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := rn.Stats()
	if st.Runs != 1 || st.Hits != 31 {
		t.Fatalf("stats = %+v, want 1 run, 31 hits", st)
	}
}

func TestDoCachesErrors(t *testing.T) {
	rn := New()
	var computed int
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := rn.Do("k", func() (any, error) {
			computed++
			return nil, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if computed != 1 {
		t.Fatalf("computed %d times, want 1", computed)
	}
}

func TestDoEmptyKeyUncached(t *testing.T) {
	rn := New()
	var computed int
	for i := 0; i < 2; i++ {
		if _, err := rn.Do("", func() (any, error) { computed++; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if computed != 2 {
		t.Fatalf("computed %d times, want 2 (uncached)", computed)
	}
}

func TestWithoutCache(t *testing.T) {
	rn := New(WithoutCache())
	var computed int
	for i := 0; i < 2; i++ {
		if _, err := rn.Do("k", func() (any, error) { computed++; return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if computed != 2 {
		t.Fatalf("computed %d times, want 2 (cache disabled)", computed)
	}
}

func TestKeyDistinguishesConfigs(t *testing.T) {
	type cfg struct {
		Size  int64
		Parts int
	}
	a, err := Key("bench", cfg{1024, 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Key("bench", cfg{1024, 16})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Key("bench", cfg{1024, 8})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different configs share a key")
	}
	if a != a2 {
		t.Fatal("identical configs produce different keys")
	}
	if _, err := Key(func() {}); err == nil {
		t.Fatal("expected error for unmarshalable part")
	}
}
