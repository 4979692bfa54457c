package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partmb/internal/sim"
	"partmb/internal/stats"
)

// sweepOnLanes runs one Sweep on a fresh runner and checks what holds however
// a sweep ends: no lane goroutine outlives the call, every task ran on a lane
// below min(workers, n), and tasks that shared a lane never overlapped in host
// time. It returns the task events and Sweep's error.
func sweepOnLanes(t *testing.T, ctx context.Context, workers, n int, fn func(*Runner, context.Context, int) (any, error)) ([]TaskEvent, error) {
	t.Helper()
	o := &recordingObserver{}
	rn := New(Workers(workers), WithoutCache(), WithObserver(o))
	before := runtime.NumGoroutine()
	_, err := rn.Sweep(ctx, n, nil, func(ctx context.Context, i int) (any, error) { return fn(rn, ctx, i) })
	checkGoroutines(t, before, "Sweep")
	if rn.sweeps != 0 || rn.arenas != nil {
		t.Errorf("%d sweeps still counted, %d arenas kept after Sweep", rn.sweeps, len(rn.arenas))
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

// checkGoroutines fails unless the goroutine count comes back down to before
// — lanes exit just after the call that joined them — printing every stack
// when it does not.
func checkGoroutines(t *testing.T, before int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before %s, %d after:\n%s", before, after, now, buf[:runtime.Stack(buf, true)])
	}
}

// forkCfg is the configuration of forkCell: a simulation that forks a team
// of Team procs Iters times, so its arena keeps Team+1 coroutines. A Gated
// cell then waits on forkGate before it returns.
type forkCfg struct {
	Team, Iters int
	Seed        int64
	Gated       bool
	RC          *stats.RunConfig `json:",omitempty"`
}

// forkGate holds Gated fork cells: each one sends on reached, then waits for
// release to close.
var forkGate struct{ reached, release chan struct{} }

// arenasSeen records the arena every local run of forkCell got.
var arenasSeen = struct {
	sync.Mutex
	m map[*sim.Arena]int
}{m: map[*sim.Arena]int{}}

func noteArena(a *sim.Arena) {
	arenasSeen.Lock()
	defer arenasSeen.Unlock()
	arenasSeen.m[a]++
}

// seenArenas returns the runs per arena since the last call.
func seenArenas() map[*sim.Arena]int {
	arenasSeen.Lock()
	defer arenasSeen.Unlock()
	m := arenasSeen.m
	arenasSeen.m = map[*sim.Arena]int{}
	return m
}

// forkCell's value is the virtual time its simulation ends at; its adaptive
// form draws it under seeds 0, 1, ... (a cell running cells on its lane).
var forkCell = NewCell("test.fork",
	func(c forkCfg) (forkCfg, *stats.RunConfig, bool) { return c, c.RC, false },
	func(a *sim.Arena, c forkCfg, _ []int64) (int64, error) {
		noteArena(a)
		s := a.New()
		s.Spawn("master", func(p *sim.Proc) {
			for it := 0; it < c.Iters; it++ {
				var wg sim.WaitGroup
				wg.Add(s, c.Team)
				for w := 0; w < c.Team; w++ {
					s.Spawn("worker", func(p *sim.Proc) {
						p.Sleep(sim.Duration(1 + (int64(w)+c.Seed)%3))
						wg.Done(s)
					})
				}
				wg.Wait(p)
			}
		})
		err := s.Run()
		if c.Gated {
			forkGate.reached <- struct{}{}
			<-forkGate.release
		}
		return int64(s.Now()), err
	},
	func(cell *Cell[forkCfg, int64], r *Runner, c forkCfg, args []int64) (int64, error) {
		first, _, err := cell.Draws(r, c, args, func(c forkCfg, d int) forkCfg {
			c.RC, c.Seed = nil, int64(d)
			return c
		}, func(v int64) float64 { return float64(v) })
		return first, err
	})

// forkCfgs are fork cells of six shapes.
func forkCfgs(i int) forkCfg { return forkCfg{Team: 2 + i%3*3, Iters: 4 + i%2} }

// forkEnds returns the end times of forkCfgs(0..5) on no arena.
func forkEnds(t *testing.T) map[forkCfg]int64 {
	t.Helper()
	want := map[forkCfg]int64{}
	for i := 0; i < 6; i++ {
		c := forkCfgs(i)
		v, err := forkCell.Run(New(WithoutCache()), c)
		if err != nil {
			t.Fatal(err)
		}
		want[c] = v
	}
	return want
}

func TestLanesSuccess(t *testing.T) {
	tasks, err := sweepOnLanes(t, context.Background(), 3, 20, func(*Runner, context.Context, int) (any, error) {
		time.Sleep(100 * time.Microsecond)
		return nil, nil
	})
	if err != nil || len(tasks) != 20 {
		t.Fatalf("err %v, %d tasks; want nil, 20", err, len(tasks))
	}
}

// TestLanesFirstErrorCancelsRunning: cell 0 fails once cells 1..3, each
// having run a simulation on its lane's arena, hold the other lanes; they
// are cancelled, nothing else is dispatched, and every lane and every
// stashed coroutine still goes.
func TestLanesFirstErrorCancelsRunning(t *testing.T) {
	var others sync.WaitGroup
	others.Add(3)
	var cancelled atomic.Int32
	tasks, err := sweepOnLanes(t, context.Background(), 4, 12, func(rn *Runner, ctx context.Context, i int) (any, error) {
		if i == 0 {
			others.Wait()
			return nil, errors.New("cell 0 failed")
		}
		if _, err := forkCell.Run(rn, forkCfgs(i)); err != nil {
			return nil, err
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

// TestLanesContextCancelledWhileWaiting: both lanes are busy, after a
// simulation each, until the sweep's context is cancelled, so the dispatcher
// is waiting for a lane when it is.
func TestLanesContextCancelledWhileWaiting(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	tasks, err := sweepOnLanes(t, ctx, 2, 8, func(rn *Runner, ctx context.Context, i int) (any, error) {
		if _, err := forkCell.Run(rn, forkCfgs(i)); err != nil {
			return nil, err
		}
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
	tasks, err := sweepOnLanes(t, context.Background(), 8, 3, func(*Runner, context.Context, int) (any, error) {
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

// TestLanesArenasNested: every lane runs an adaptive cell, whose draws are
// cells run on the lane, and a nested Sweep of cells. Every run inside the
// outer Sweep gets an arena, lanes hand arenas on instead of making one per
// cell, values match runs on no arena, and nothing outlives the outer Sweep.
func TestLanesArenasNested(t *testing.T) {
	rc, _ := stats.ParseRunConfig("") // the defaults
	seenArenas()
	want := forkEnds(t)
	if seen := seenArenas(); len(seen) != 1 || seen[nil] != 6 {
		t.Fatalf("cells outside any Sweep got arenas %v, want nil only", seen)
	}
	rn := New(Workers(2), WithoutCache())
	before := runtime.NumGoroutine()
	_, err := rn.Sweep(context.Background(), 6, nil, func(ctx context.Context, i int) (any, error) {
		adaptive := forkCfgs(i)
		adaptive.RC = &rc
		if _, err := forkCell.Run(rn, adaptive); err != nil {
			return nil, err
		}
		vals, err := rn.Sweep(ctx, 3, nil, func(_ context.Context, j int) (any, error) {
			return forkCell.Run(rn, forkCfgs(i+j))
		})
		for j, v := range vals {
			if c := forkCfgs(i + j); v != want[c] {
				return nil, fmt.Errorf("%+v ended at %v on an arena, %d on none", c, v, want[c])
			}
		}
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before, "nested Sweeps")
	seen := seenArenas()
	runs := 0
	for _, n := range seen {
		runs += n
	}
	// Two lanes, each running one nested Sweep of two lanes at a time, hold
	// at most four arenas at once: a cell's draws run one after another.
	if seen[nil] != 0 || runs < 6*(2+3) || len(seen) > 4 {
		t.Fatalf("%d runs on %d arenas (%d on none), want at least %d on at most 4", runs, len(seen), seen[nil], 6*5)
	}
}

// TestLanesConcurrentSweepsShareArenas: two Sweeps run on one runner at once.
// The first to return keeps the arenas the other still uses, and the
// outermost return closes them all.
func TestLanesConcurrentSweepsShareArenas(t *testing.T) {
	want := forkEnds(t)
	rn := New(Workers(2), WithoutCache())
	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[k] = rn.Sweep(context.Background(), 8+8*k, nil, func(ctx context.Context, i int) (any, error) {
				c := forkCfgs(i)
				v, err := forkCell.Run(rn, c)
				if err == nil && v != want[c] {
					err = fmt.Errorf("%+v ended at %d on an arena, %d on none", c, v, want[c])
				}
				return v, err
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkGoroutines(t, before, "two concurrent Sweeps")
	if rn.sweeps != 0 || rn.arenas != nil {
		t.Errorf("%d sweeps still counted, %d arenas kept", rn.sweeps, len(rn.arenas))
	}
}

// TestLanesArenaOutlivingTheSweepsIsClosed: a cell that a goroutine outside
// the Sweep runs while the Sweep is active gets an arena; when it returns
// after the last Sweep, its arena is closed instead of kept.
func TestLanesArenaOutlivingTheSweepsIsClosed(t *testing.T) {
	forkGate.reached, forkGate.release = make(chan struct{}), make(chan struct{})
	rn := New(Workers(1), WithoutCache())
	before := runtime.NumGoroutine()
	inSweep, cellDone := make(chan struct{}), make(chan error)
	swept := make(chan error)
	go func() {
		_, err := rn.Sweep(context.Background(), 1, nil, func(context.Context, int) (any, error) {
			close(inSweep)
			<-forkGate.reached
			return nil, nil
		})
		swept <- err
	}()
	<-inSweep
	go func() {
		c := forkCfgs(1)
		c.Gated = true
		_, err := forkCell.Run(rn, c)
		cellDone <- err
	}()
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	close(forkGate.release)
	if err := <-cellDone; err != nil {
		t.Fatal(err)
	}
	checkGoroutines(t, before, "a cell that outlived its Sweep")
	if rn.sweeps != 0 || rn.arenas != nil {
		t.Errorf("%d sweeps still counted, %d arenas kept", rn.sweeps, len(rn.arenas))
	}
}
