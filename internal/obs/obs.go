// Package obs is the observability layer of the experiment engine: a
// Collector that implements engine.Observer and turns the engine's event
// stream into three artifacts —
//
//   - a machine-readable JSONL run journal (one record per task and per
//     cell resolution, plus a stats trailer), deterministic by default so
//     journals diff cleanly across worker counts and hosts;
//   - per-experiment metric summaries (runs, cache hits, host-time
//     distribution via internal/stats, virtual sim time, cells/sec);
//   - a Chrome-trace view of the engine's host-time schedule (worker lanes
//     as tids) that loads directly in Perfetto or chrome://tracing.
//
// The package closes the loop the paper's methodology demands: a sweep is
// not just tables, it is a performance record you can aggregate, diff, and
// gate on.
package obs

import (
	"sync"

	"partmb/internal/engine"
	"partmb/internal/sim"
)

// SimTimed is implemented by cell result types that can report how much
// virtual simulated time the cell covered (core.Result, patterns.Result,
// snap.ProfilePoint). Cells whose values do not implement it journal a
// zero sim time.
type SimTimed interface {
	SimElapsed() sim.Duration
}

// Sharded is implemented by cell result types that can expose the sharded
// DES kernel's execution counters (patterns.Result). Sequential runs return
// nil and journal no shard fields at all; memo and disk hits share (or
// lack) the original run's counters, so the collector records shard
// telemetry only for Source "run" cells — anything else would double count
// steals and windows across cache hits.
type Sharded interface {
	ShardRun() *sim.ShardStats
}

// Sampled is implemented by cell result types produced by the adaptive
// confidence-targeted sampling layer (core.Result, classic.Point,
// snap.ProfilePoint, patterns.Result). n is the number of samples drawn,
// relCI the worst relative CI half-width across the cell's metrics, and
// reason the sampler's stop reason ("converged", "max-samples", "budget").
// Fixed-path cells return n == 0 and journal no sampling fields at all, so
// adaptive-off journals stay byte-identical.
type Sampled interface {
	SampleStats() (n int, relCI float64, reason string)
}

// Cell is the journal record of one cell resolution through the engine's
// cache/retry machinery. All fields except HostNS are deterministic for a
// deterministic simulator: the multiset of cell records does not depend on
// the worker count or host speed.
type Cell struct {
	// Experiment is the engine label active when the cell resolved.
	Experiment string `json:"exp,omitempty"`
	// Key is the content-addressed cell key ("" for uncacheable cells).
	Key string `json:"key,omitempty"`
	// Source is where the result came from: "run", "memo", or "disk".
	Source string `json:"src"`
	// Outcome classifies the result: "ok", "error", "transient", or
	// "canceled".
	Outcome string `json:"out"`
	// Attempts is the number of attempts performed (only for Source
	// "run"; >1 means transient retries happened).
	Attempts int `json:"attempts,omitempty"`
	// SimNS is the virtual simulated time the cell covered, when its
	// result type implements SimTimed.
	SimNS int64 `json:"sim_ns,omitempty"`
	// HostNS is the host wall time spent resolving the cell. Volatile:
	// omitted from deterministic journals.
	HostNS int64 `json:"host_ns,omitempty"`
	// StartNS is the host-time offset (since the runner's epoch) at which
	// the cell's resolution began — the cell-side counterpart of
	// Task.StartNS, which lets traces render cell spans on a shared
	// timeline. Volatile.
	StartNS int64 `json:"start_ns,omitempty"`
	// Remote names the remote worker that executed the cell ("" when it ran
	// locally); RemoteHostNS is that worker's own measured host time. Both
	// volatile: where a cell ran can change only wall-clock time, never its
	// value, and deterministic journals must stay byte-identical between
	// distributed and local runs.
	Remote       string `json:"remote,omitempty"`
	RemoteHostNS int64  `json:"remote_host_ns,omitempty"`
	// ShardWindows / ShardEvents / ShardImbalance carry the sharded-kernel
	// execution counters when the cell's result implements Sharded,
	// actually ran sharded, and came from Source "run". All volatile: a
	// sequential run of the same cell has none, so deterministic journals
	// zero them like host times.
	ShardWindows   int64   `json:"shard_windows,omitempty"`
	ShardEvents    int64   `json:"shard_events,omitempty"`
	ShardImbalance float64 `json:"shard_imbalance,omitempty"`
	// Samples / CIRel / CIReason carry the adaptive sampling outcome when
	// the cell's result type implements Sampled and actually sampled
	// (Samples > 0). Absent on fixed-path cells — adaptive-off journals do
	// not change shape.
	Samples  int     `json:"samples,omitempty"`
	CIRel    float64 `json:"ci_rel,omitempty"`
	CIReason string  `json:"ci_reason,omitempty"`
	// Error is the cell's error text, if any.
	Error string `json:"err,omitempty"`
}

// Task is the journal record of one scheduled grid/map slot. Worker,
// StartNS, and EndNS are volatile (schedule-dependent); the rest is
// deterministic.
type Task struct {
	Experiment string `json:"exp,omitempty"`
	// Index is the row-major dispatch index within the task's grid/map.
	Index int `json:"i"`
	// Worker is the lane the task ran on. Volatile.
	Worker  int    `json:"worker,omitempty"`
	Outcome string `json:"out"`
	// StartNS/EndNS are host-time offsets since the runner's epoch.
	// Volatile.
	StartNS int64 `json:"start_ns,omitempty"`
	EndNS   int64 `json:"end_ns,omitempty"`
}

// Collector accumulates engine events in memory. It is safe for concurrent
// use; the zero value is ready. Install it with
// engine.WithObserver(collector).
type Collector struct {
	mu    sync.Mutex
	cells []Cell
	tasks []Task
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// CellDone implements engine.Observer.
func (c *Collector) CellDone(ev engine.CellEvent) {
	rec := Cell{
		Experiment:   ev.Experiment,
		Key:          ev.Key,
		Source:       string(ev.Source),
		Outcome:      outcomeOf(ev.Err),
		Attempts:     ev.Attempts,
		HostNS:       int64(ev.Host),
		StartNS:      int64(ev.Start),
		Remote:       ev.Remote,
		RemoteHostNS: int64(ev.RemoteHost),
	}
	if ev.Err != nil {
		rec.Error = ev.Err.Error()
	}
	if st, ok := ev.Value.(SimTimed); ok {
		rec.SimNS = int64(st.SimElapsed())
	}
	if sh, ok := ev.Value.(Sharded); ok && ev.Source == engine.SourceRun {
		if st := sh.ShardRun(); st != nil {
			rec.ShardWindows = st.Windows
			rec.ShardEvents = st.Events
			rec.ShardImbalance = st.ImbalanceMean
		}
	}
	if sp, ok := ev.Value.(Sampled); ok {
		if n, rel, reason := sp.SampleStats(); n > 0 {
			rec.Samples, rec.CIRel, rec.CIReason = n, rel, reason
		}
	}
	c.mu.Lock()
	c.cells = append(c.cells, rec)
	c.mu.Unlock()
}

// TaskDone implements engine.Observer.
func (c *Collector) TaskDone(ev engine.TaskEvent) {
	rec := Task{
		Experiment: ev.Experiment,
		Index:      ev.Index,
		Worker:     ev.Worker,
		Outcome:    outcomeOf(ev.Err),
		StartNS:    int64(ev.Start),
		EndNS:      int64(ev.End),
	}
	c.mu.Lock()
	c.tasks = append(c.tasks, rec)
	c.mu.Unlock()
}

// cellList returns a copy of the collected cell records, in arrival order.
func (c *Collector) cellList() []Cell {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Cell(nil), c.cells...)
}

// taskList returns a copy of the collected task records, in arrival order.
func (c *Collector) taskList() []Task {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Task(nil), c.tasks...)
}

// outcomeOf classifies an error the way the engine's cache does.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case engine.IsCancellation(err):
		return "canceled"
	case engine.IsTransient(err):
		return "transient"
	default:
		return "error"
	}
}

// Tallies are the scheduling counters reconstructed from the collected
// records. For a run observed end to end they must equal the runner's own
// engine.Stats — the journal round-trip tests pin that equivalence.
type Tallies struct {
	// Cells is the number of scheduled tasks (engine.Stats.Cells).
	Cells int64 `json:"cells"`
	// Runs is the number of cell attempts performed (engine.Stats.Runs).
	Runs int64 `json:"runs"`
	// MemoHits / DiskHits mirror engine.Stats.Hits / DiskHits.
	MemoHits int64 `json:"memo_hits"`
	DiskHits int64 `json:"disk_hits"`
	// Retries mirrors engine.Stats.Retries.
	Retries int64 `json:"retries"`
	// Errors counts cell resolutions that ended in a permanent error.
	Errors int64 `json:"errors"`
}

// tallies reconstructs the engine counters from the collected records.
func (c *Collector) tallies() Tallies {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := Tallies{Cells: int64(len(c.tasks))}
	for _, cell := range c.cells {
		switch cell.Source {
		case string(engine.SourceRun):
			t.Runs += int64(cell.Attempts)
			t.Retries += int64(cell.Attempts - 1)
		case string(engine.SourceMemo):
			t.MemoHits++
		case string(engine.SourceDisk):
			t.DiskHits++
		}
		if cell.Outcome == "error" {
			t.Errors++
		}
	}
	return t
}

// diffStats describes every way t disagrees with the engine's counters, or
// "" when they match. Only counters both sides track are compared.
func (t Tallies) diffStats(st engine.Stats) string {
	var out string
	cmp := func(name string, got, want int64) {
		if got != want {
			out += name + " mismatch; "
		}
	}
	cmp("cells", t.Cells, st.Cells)
	cmp("runs", t.Runs, st.Runs)
	cmp("memo hits", t.MemoHits, st.Hits)
	cmp("disk hits", t.DiskHits, st.DiskHits)
	cmp("retries", t.Retries, st.Retries)
	return out
}
