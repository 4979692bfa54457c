package engine

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sweepOnLanes runs one Sweep on a fresh runner and checks what holds however
// a sweep ends: no lane goroutine outlives the call, every task ran on a lane
// below min(workers, n), and tasks that shared a lane never overlapped in host
// time. It returns the task events and Sweep's error.
func sweepOnLanes(t *testing.T, ctx context.Context, workers, n int, fn func(context.Context, int) (any, error)) ([]TaskEvent, error) {
	t.Helper()
	o := &recordingObserver{}
	rn := New(Workers(workers), WithoutCache(), WithObserver(o))
	before := runtime.NumGoroutine()
	_, err := rn.Sweep(ctx, n, nil, fn)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before Sweep, %d after:\n%s", before, now, buf[:runtime.Stack(buf, true)])
	}
	lanes := min(workers, n)
	byLane := map[int][]TaskEvent{}
	for _, ev := range o.tasks {
		if ev.Worker < 0 || ev.Worker >= lanes {
			t.Errorf("task %d ran on lane %d, want below %d", ev.Index, ev.Worker, lanes)
		}
		byLane[ev.Worker] = append(byLane[ev.Worker], ev)
	}
	for lane, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
		for k := 1; k < len(evs); k++ {
			if evs[k].Start < evs[k-1].End {
				t.Errorf("lane %d: task %d started before task %d ended", lane, evs[k].Index, evs[k-1].Index)
			}
		}
	}
	return o.tasks, err
}

func TestLanesSuccess(t *testing.T) {
	tasks, err := sweepOnLanes(t, context.Background(), 3, 20, func(context.Context, int) (any, error) {
		time.Sleep(100 * time.Microsecond)
		return nil, nil
	})
	if err != nil || len(tasks) != 20 {
		t.Fatalf("err %v, %d tasks; want nil, 20", err, len(tasks))
	}
}

// TestLanesFirstErrorCancelsRunning: cell 0 fails once cells 1..3 hold the
// other lanes; they are cancelled, nothing else is dispatched, and every lane
// still exits.
func TestLanesFirstErrorCancelsRunning(t *testing.T) {
	var others sync.WaitGroup
	others.Add(3)
	var cancelled atomic.Int32
	tasks, err := sweepOnLanes(t, context.Background(), 4, 12, func(ctx context.Context, i int) (any, error) {
		if i == 0 {
			others.Wait()
			return nil, errors.New("cell 0 failed")
		}
		others.Done()
		select {
		case <-ctx.Done():
			cancelled.Add(1)
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	})
	if err == nil || err.Error() != "cell 0 failed" {
		t.Fatalf("err = %v, want cell 0 failed", err)
	}
	if len(tasks) != 4 || cancelled.Load() != 3 {
		t.Fatalf("%d tasks ran and %d were cancelled; want 4 and 3", len(tasks), cancelled.Load())
	}
}

// TestLanesContextCancelledWhileWaiting: both lanes are busy until the
// sweep's context is cancelled, so the dispatcher is waiting for a lane when
// it is.
func TestLanesContextCancelledWhileWaiting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	tasks, err := sweepOnLanes(t, ctx, 2, 8, func(ctx context.Context, i int) (any, error) {
		if started.Add(1) == 2 {
			cancel()
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) || len(tasks) != 2 {
		t.Fatalf("err %v, %d tasks; want context.Canceled, 2", err, len(tasks))
	}
}

// TestLanesFewerTasksThanWorkers: n < workers starts n lanes. The tasks wait
// for each other, so each holds its own lane.
func TestLanesFewerTasksThanWorkers(t *testing.T) {
	var all sync.WaitGroup
	all.Add(3)
	tasks, err := sweepOnLanes(t, context.Background(), 8, 3, func(context.Context, int) (any, error) {
		all.Done()
		all.Wait()
		return nil, nil
	})
	lanes := map[int]bool{}
	for _, ev := range tasks {
		lanes[ev.Worker] = true
	}
	if err != nil || len(tasks) != 3 || len(lanes) != 3 {
		t.Fatalf("err %v, %d tasks on %d lanes; want nil, 3 on 3", err, len(tasks), len(lanes))
	}
}
