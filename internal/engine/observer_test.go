package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// recordingObserver counts events for the hook tests.
type recordingObserver struct {
	mu    sync.Mutex
	cells []CellEvent
	tasks []TaskEvent
}

func (o *recordingObserver) CellDone(ev CellEvent) {
	o.mu.Lock()
	o.cells = append(o.cells, ev)
	o.mu.Unlock()
}

func (o *recordingObserver) TaskDone(ev TaskEvent) {
	o.mu.Lock()
	o.tasks = append(o.tasks, ev)
	o.mu.Unlock()
}

func TestSetExperimentNilSafe(t *testing.T) {
	var rn *Runner
	rn.SetExperiment("x") // must not panic
	if got := rn.currentExperiment(); got != "" {
		t.Fatalf("nil runner experiment = %q", got)
	}
}

func TestObserverSeesCellsTasksAndLabels(t *testing.T) {
	o := &recordingObserver{}
	rn := New(Workers(2), WithObserver(o))
	rn.SetExperiment("expA")
	if _, err := rn.Map(context.Background(), 4, func(ctx context.Context, i int) (any, error) {
		// Index pairs share a key: two runs, two memo hits.
		return rn.Do("k"+string(rune('0'+i/2)), func() (any, error) { return i, nil })
	}); err != nil {
		t.Fatal(err)
	}
	rn.SetExperiment("expB")
	if _, err := rn.Do("solo", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}

	if len(o.tasks) != 4 {
		t.Fatalf("%d task events, want 4", len(o.tasks))
	}
	if len(o.cells) != 5 {
		t.Fatalf("%d cell events, want 5", len(o.cells))
	}
	srcs := map[CellSource]int{}
	for _, c := range o.cells {
		srcs[c.Source]++
		if c.Err != nil {
			t.Fatalf("unexpected cell error: %v", c.Err)
		}
	}
	if srcs[SourceRun] != 3 || srcs[SourceMemo] != 2 {
		t.Fatalf("sources = %v, want 3 runs + 2 memo", srcs)
	}
	for _, ev := range o.tasks {
		if ev.Experiment != "expA" {
			t.Fatalf("task labeled %q, want expA", ev.Experiment)
		}
		if ev.End < ev.Start {
			t.Fatalf("task ends before it starts: %+v", ev)
		}
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Fatalf("task worker %d outside pool of 2", ev.Worker)
		}
	}

	st := rn.Stats()
	if st.ExperimentRuns["expA"] != 2 || st.ExperimentRuns["expB"] != 1 {
		t.Fatalf("experiment runs = %v", st.ExperimentRuns)
	}
	if s := st.String(); !strings.Contains(s, "runs by experiment: expA=2 expB=1") {
		t.Fatalf("stats string missing experiment runs: %q", s)
	}
}

func TestStatsStringDiskByteTotals(t *testing.T) {
	s := Stats{Cells: 3, Runs: 0, Hits: 0, DiskHits: 3, DiskReadBytes: 671}
	got := s.String()
	want := "3 cells, 0 runs, 0 cache hits, 3 disk hits (671 bytes read), 0 disk writes (0 bytes written)"
	if got != want {
		t.Fatalf("Stats.String() = %q, want %q", got, want)
	}
}
