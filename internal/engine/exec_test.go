package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partmb/internal/sim"
	"partmb/internal/stats"
)

// fakeExec scripts an Executor: each Execute call pops the next response.
type fakeExec struct {
	mu    sync.Mutex
	calls int
	tasks []RemoteTask
	fn    func(call int, t RemoteTask) (RemoteResult, error)
}

func (f *fakeExec) Execute(_ context.Context, t RemoteTask) (RemoteResult, error) {
	f.mu.Lock()
	f.calls++
	call := f.calls
	f.tasks = append(f.tasks, t)
	f.mu.Unlock()
	return f.fn(call, t)
}

type execVal struct{ N int }

// execCfg is the configuration of testCell: N is the value a local run
// returns, Hidden an attachment the key cannot see, and a non-nil Shape
// marshals but does not decode back, so the cell cannot travel.
type execCfg struct {
	N      int
	Hidden bool         `json:"-"`
	Shape  fmt.Stringer `json:",omitempty"`
}

// localRuns counts testCell's local computations.
var localRuns atomic.Int64

// The kind registry is process-global and rejects duplicates, so test cells
// are defined once per process, not per test run (-count=N).
var testCell = NewCell("test.kind",
	func(c execCfg) (execCfg, *stats.RunConfig, bool) { return c, nil, c.Hidden },
	func(_ *sim.Arena, c execCfg, _ []int64) (execVal, error) {
		localRuns.Add(1)
		return execVal{N: c.N}, nil
	}, nil)

func remoteOK(n int, worker string, hostNS int64) RemoteResult {
	return RemoteResult{Value: json.RawMessage(fmt.Sprintf(`{"N":%d}`, n)), HostNS: hostNS, Worker: worker}
}

func TestDoAsViaDispatchesRemotely(t *testing.T) {
	x := &fakeExec{fn: func(int, RemoteTask) (RemoteResult, error) { return remoteOK(7, "w1", 1234), nil }}
	r := New(WithExecutor(x))
	before := localRuns.Load()
	got, err := testCell.Run(r, execCfg{N: 1}, 3)
	if err != nil || got.N != 7 {
		t.Fatalf("Run = %+v, %v; want {7}, nil", got, err)
	}
	if localRuns.Load() != before {
		t.Error("local run despite live executor")
	}
	st := r.Stats()
	if st.RemoteRuns != 1 || st.RemoteErrors != 0 || st.RemoteHost != 1234*time.Nanosecond {
		t.Errorf("stats = %d runs, %d errors, %v host; want 1, 0, 1.234µs", st.RemoteRuns, st.RemoteErrors, st.RemoteHost)
	}
	task := x.tasks[0]
	if task.Key != testCell.Key(execCfg{N: 1}, 3) || task.Kind != "test.kind" || string(task.Config) != `{"cfg":{"N":1},"args":[3]}` {
		t.Errorf("shipped task = %+v", task)
	}
}

func TestDoAsViaFallsBackOnErrNoWorkers(t *testing.T) {
	x := &fakeExec{fn: func(int, RemoteTask) (RemoteResult, error) { return RemoteResult{}, ErrNoWorkers }}
	r := New(WithExecutor(x))
	got, err := testCell.Run(r, execCfg{N: 9})
	if err != nil || got.N != 9 {
		t.Fatalf("Run = %+v, %v; want local {9}, nil", got, err)
	}
	if st := r.Stats(); st.RemoteRuns != 0 || st.RemoteErrors != 0 || st.Runs != 1 {
		t.Errorf("stats = %+v; want a plain local run", st)
	}
}

func TestDoAsViaRetriesTransientRemoteFailure(t *testing.T) {
	x := &fakeExec{fn: func(call int, _ RemoteTask) (RemoteResult, error) {
		if call == 1 {
			return RemoteResult{}, Transientf("worker lost mid-cell")
		}
		return remoteOK(3, "w2", 50), nil
	}}
	r := New(WithExecutor(x))
	got, err := testCell.Run(r, execCfg{})
	if err != nil || got.N != 3 {
		t.Fatalf("Run = %+v, %v; want retried {3}, nil", got, err)
	}
	st := r.Stats()
	if st.Retries != 1 || st.RemoteErrors != 1 || st.RemoteRuns != 1 {
		t.Errorf("stats = %d retries, %d remote errors, %d remote runs; want 1, 1, 1", st.Retries, st.RemoteErrors, st.RemoteRuns)
	}
}

func TestDoAsViaUndecodableResultIsTransient(t *testing.T) {
	x := &fakeExec{fn: func(call int, _ RemoteTask) (RemoteResult, error) {
		if call == 1 {
			return RemoteResult{Value: json.RawMessage(`{"N": not json`), Worker: "w1"}, nil
		}
		return remoteOK(5, "w1", 10), nil
	}}
	r := New(WithExecutor(x))
	got, err := testCell.Run(r, execCfg{})
	if err != nil || got.N != 5 {
		t.Fatalf("Run = %+v, %v; want {5}, nil after retry", got, err)
	}
	// Both attempts executed remotely; the first also counts as an error.
	if st := r.Stats(); st.RemoteRuns != 2 || st.RemoteErrors != 1 || st.Retries != 1 {
		t.Errorf("stats = %d remote runs, %d remote errors, %d retries; want 2, 1, 1", st.RemoteRuns, st.RemoteErrors, st.Retries)
	}
}

func TestDoAsViaPermanentRemoteErrorMemoized(t *testing.T) {
	x := &fakeExec{fn: func(int, RemoteTask) (RemoteResult, error) {
		return RemoteResult{}, fmt.Errorf("core: bad config")
	}}
	r := New(WithExecutor(x))
	for i := 0; i < 2; i++ {
		if _, err := testCell.Run(r, execCfg{}); err == nil {
			t.Fatal("want permanent error")
		}
	}
	if x.calls != 1 {
		t.Errorf("executor called %d times; permanent errors must memoize like local ones", x.calls)
	}
}

func TestDoAsViaObserverSeesRemoteWorker(t *testing.T) {
	x := &fakeExec{fn: func(int, RemoteTask) (RemoteResult, error) { return remoteOK(1, "w7", 42), nil }}
	var mu sync.Mutex
	var events []CellEvent
	obs := observerFuncs{cell: func(ev CellEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}}
	r := New(WithExecutor(x), WithObserver(obs))
	if _, err := testCell.Run(r, execCfg{}); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d cell events, want 1", len(events))
	}
	if ev := events[0]; ev.Remote != "w7" || ev.RemoteHost != 42*time.Nanosecond || ev.Source != SourceRun {
		t.Errorf("event = %+v; want Remote w7, RemoteHost 42ns, Source run", ev)
	}
}

func TestDoAsViaStaysLocalWhenNotEligible(t *testing.T) {
	x := &fakeExec{fn: func(int, RemoteTask) (RemoteResult, error) {
		return RemoteResult{}, fmt.Errorf("executor must not be called")
	}}
	cases := []struct {
		name string
		r    *Runner
		cfg  execCfg
	}{
		{"unkeyed", New(WithExecutor(x)), execCfg{N: 4, Hidden: true}},
		{"does not travel", New(WithExecutor(x)), execCfg{N: 4, Shape: time.Second}},
		{"no executor", New(), execCfg{N: 4}},
		{"cache disabled", New(WithExecutor(x), WithoutCache()), execCfg{N: 4}},
	}
	for _, tc := range cases {
		got, err := testCell.Run(tc.r, tc.cfg)
		if err != nil || got.N != 4 {
			t.Errorf("%s: Run = %+v, %v; want local {4}, nil", tc.name, got, err)
		}
	}
	if x.calls != 0 {
		t.Errorf("executor called %d times for ineligible cells", x.calls)
	}
}

// observerFuncs adapts closures to the Observer interface.
type observerFuncs struct {
	cell func(CellEvent)
	task func(TaskEvent)
}

func (o observerFuncs) CellDone(ev CellEvent) {
	if o.cell != nil {
		o.cell(ev)
	}
}
func (o observerFuncs) TaskDone(ev TaskEvent) {
	if o.task != nil {
		o.task(ev)
	}
}
