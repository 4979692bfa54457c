package engine

import (
	"sync"
	"testing"

	"partmb/internal/sim"
)

type countObs struct {
	mu    sync.Mutex
	cells int
	tasks int
}

func (c *countObs) CellDone(CellEvent) { c.mu.Lock(); c.cells++; c.mu.Unlock() }
func (c *countObs) TaskDone(TaskEvent) { c.mu.Lock(); c.tasks++; c.mu.Unlock() }

func TestFanOutAddRemove(t *testing.T) {
	f := NewFanOut()
	a, b := &countObs{}, &countObs{}
	ida := f.Add(a)
	f.Add(b)

	f.CellDone(CellEvent{Key: "k"})
	f.TaskDone(TaskEvent{})
	f.Remove(ida)
	f.CellDone(CellEvent{Key: "k"})
	f.Remove(12345) // unknown id: no-op

	if a.cells != 1 || a.tasks != 1 {
		t.Fatalf("removed observer saw %d cells / %d tasks, want 1 / 1", a.cells, a.tasks)
	}
	if b.cells != 2 || b.tasks != 1 {
		t.Fatalf("remaining observer saw %d cells / %d tasks, want 2 / 1", b.cells, b.tasks)
	}
}

// TestFanOutOnRunner: a fan-out installed as the runner's observer
// delivers engine events to every subscriber — the wiring sweepd uses to
// feed a permanent collector and per-request SSE streams from one runner.
func TestFanOutOnRunner(t *testing.T) {
	f := NewFanOut()
	a, b := &countObs{}, &countObs{}
	f.Add(a)
	f.Add(b)
	rn := New(WithObserver(f))
	if _, err := doAs(rn, "cell", nil, func(*sim.Arena) (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if a.cells != 1 || b.cells != 1 {
		t.Fatalf("subscribers saw %d / %d cell events, want 1 / 1", a.cells, b.cells)
	}
}
