package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestLPTDispatchOrderDescendingCost(t *testing.T) {
	// One worker serializes dispatch, so the observed call order IS the
	// dispatch order: descending cost, ties by ascending index.
	dispatched := func(cost func(int) float64) []int {
		rn := New(Workers(1), WithoutCache())
		var order []int
		if _, err := rn.Sweep(context.Background(), 4, cost, func(_ context.Context, i int) (any, error) {
			order = append(order, i)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		return order
	}
	costs := []float64{1, 8, 2, 8}
	if got, want := dispatched(func(i int) float64 { return costs[i] }), []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order %v, want %v", got, want)
	}
	if got, want := dispatched(nil), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nil cost dispatched %v, want index order %v", got, want)
	}
}

// TestSweepCostCalledOncePerIndexBeforeDispatch pins the cost argument's
// contract: one call per index, all of them on the caller's goroutine before
// the first cell runs, none after Sweep returns. Nothing about the function
// outlives the call, so concurrent sweeps on one runner cannot see each
// other's.
func TestSweepCostCalledOncePerIndexBeforeDispatch(t *testing.T) {
	const n = 64
	rn := New(Workers(8), WithoutCache())
	var calls [n]int32
	var started, late atomic.Bool
	cost := func(i int) float64 {
		atomic.AddInt32(&calls[i], 1)
		if started.Load() {
			late.Store(true)
		}
		return float64(i % 7)
	}
	if _, err := rn.Sweep(context.Background(), n, cost, func(_ context.Context, i int) (any, error) {
		started.Store(true)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if late.Load() {
		t.Fatal("cost called after the first cell was dispatched")
	}
	for i := range calls {
		if c := atomic.LoadInt32(&calls[i]); c != 1 {
			t.Fatalf("cost(%d) called %d times, want exactly once", i, c)
		}
	}
}

// TestPolicyWorkersInvariantResults is the core scheduling invariant: the
// cost function and worker count may only change wall-clock time, never
// results or cell-resolution counters.
func TestPolicyWorkersInvariantResults(t *testing.T) {
	run := func(cost func(int) float64, workers int) ([]any, Stats) {
		rn := New(Workers(workers))
		res, err := rn.Sweep(context.Background(), 40, cost, func(_ context.Context, i int) (any, error) {
			// Keyed through the cache with a shared key per index pair, so
			// memoization and singleflight are exercised under reordering.
			return rn.Do(fmt.Sprintf("cell-%d", i/2), func() (any, error) { return (i / 2) * 3, nil })
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rn.Stats()
	}
	wantRes, wantSt := run(nil, 1)
	// A geometric ladder like the real size x partitions heuristics.
	real := func(i int) float64 { return float64(int64(1) << (i % 12)) }
	for name, cost := range map[string]func(int) float64{
		"none":     nil,
		"real":     real,
		"reversed": func(i int) float64 { return -real(i) },
		"constant": func(int) float64 { return 1 },
	} {
		for _, workers := range []int{1, 2, 8} {
			res, st := run(cost, workers)
			if !reflect.DeepEqual(res, wantRes) {
				t.Fatalf("cost=%s workers=%d changed results", name, workers)
			}
			if st.Runs != wantSt.Runs || st.Hits != wantSt.Hits || st.Cells != wantSt.Cells {
				t.Fatalf("cost=%s workers=%d counters (runs %d hits %d cells %d) differ from none/1 (runs %d hits %d cells %d)",
					name, workers, st.Runs, st.Hits, st.Cells, wantSt.Runs, wantSt.Hits, wantSt.Cells)
			}
		}
	}
}

// TestLPTReportsSmallestIndexError pins the fail-fast invariant documented
// in schedule.go: with ascending costs the large failing indices dispatch
// (and report) first, yet the error that surfaces must be the smallest
// failing index, on every trial.
func TestLPTReportsSmallestIndexError(t *testing.T) {
	fail := map[int]bool{5: true, 17: true, 30: true}
	for trial := 0; trial < 10; trial++ {
		rn := New(Workers(8), WithoutCache())
		bigFirst := func(i int) float64 { return float64(i + 1) }
		_, err := rn.Sweep(context.Background(), 32, bigFirst, func(_ context.Context, i int) (any, error) {
			if fail[i] {
				if i == 5 {
					// The smallest failure also completes last.
					time.Sleep(2 * time.Millisecond)
				}
				return nil, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 5 failed" {
			t.Fatalf("trial %d: err = %v, want cell 5 failed", trial, err)
		}
	}
}

func TestScheduleStatsAccounting(t *testing.T) {
	rn := New(Workers(2), WithoutCache())
	if _, err := rn.Map(context.Background(), 6, func(_ context.Context, i int) (any, error) {
		time.Sleep(time.Millisecond)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := rn.Stats()
	if st.Makespan <= 0 || len(st.LaneBusy) != 2 || st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("scheduling fields not populated: %+v", st)
	}
	if s := st.String(); !strings.Contains(s, ", makespan ") || !strings.Contains(s, "2 lanes") {
		t.Fatalf("Stats.String() missing scheduling report: %q", s)
	}
}

func TestLPTOrderDeterministicTies(t *testing.T) {
	order := lptOrder([]float64{1, 5, 3, 5})
	want := []int{1, 3, 2, 0} // descending cost, ties by smaller index
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
