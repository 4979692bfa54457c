package engine

import (
	"sync"
	"time"
)

// This file is the engine's observability surface: an Observer receives one
// event per scheduled task (a grid/map slot on a worker lane, with host
// timestamps) and one event per cache-resolved cell (key, cache source,
// attempt count, outcome). internal/obs implements Observer with a Collector
// that turns the event stream into a JSONL run journal, per-experiment
// metric summaries, and a Chrome-trace view of the host schedule.
//
// Observation is strictly passive and nil-safe: with no observer installed
// no events are built and nothing is allocated. Task timestamps themselves
// are always taken — they feed the runner's scheduling accounting
// (Stats.Makespan, lane busy times, the cost model's observed profile) —
// but that is two monotonic clock reads per task, invisible next to a
// simulation cell.

// CellSource says where a cell's result came from.
type CellSource string

const (
	// SourceRun: the cell was computed in this process (one or more
	// attempts).
	SourceRun CellSource = "run"
	// SourceMemo: the cell was answered from the in-memory cache (the
	// caller waited on another caller's computation or hit a settled
	// entry).
	SourceMemo CellSource = "memo"
	// SourceDisk: the cell was reloaded from the persistent disk cache.
	SourceDisk CellSource = "disk"
)

// CellEvent describes the resolution of one cell through the runner's
// cache and retry machinery.
type CellEvent struct {
	// Experiment is the label current at resolution time (SetExperiment).
	Experiment string
	// Key is the content-addressed cell key ("" for uncacheable cells).
	Key string
	// Source says whether the cell ran, memo-hit, or disk-hit.
	Source CellSource
	// Attempts is the number of attempts performed (Source == SourceRun
	// only; 1 unless transient failures were retried).
	Attempts int
	// Value and Err are the cell's outcome as returned to the caller.
	Value any
	Err   error
	// Host is the host wall time spent resolving the cell (for memo hits,
	// the time spent waiting on the computing caller).
	Host time.Duration
	// Start is the host-time offset (since the runner's epoch) at which the
	// cell's resolution began — the same epoch task events use, so cell and
	// task spans share one timeline. Volatile, like Host.
	Start time.Duration
	// Remote names the remote worker that executed the cell's final attempt
	// ("" when it ran locally); RemoteHost is that worker's own measured
	// host time for the cell. Both are volatile: where a cell ran can change
	// only wall-clock time, never its value.
	Remote     string
	RemoteHost time.Duration
}

// TaskEvent describes one completed grid/map task on a worker lane.
type TaskEvent struct {
	// Experiment is the label current at dispatch time.
	Experiment string
	// Index is the task's row-major dispatch index within its grid or map.
	Index int
	// Worker is the lane the task executed on: below min(Workers, n) for a
	// sweep of n tasks.
	Worker int
	// Err is the task's outcome.
	Err error
	// Start and End are host-time offsets since the runner was created, so
	// every task of one runner shares a single epoch and the schedule can
	// be rendered as a timeline.
	Start, End time.Duration
}

// Observer receives engine events. Implementations must be safe for
// concurrent use: events arrive from every worker goroutine. Callbacks run
// inline on the worker, so they should be cheap (append to a buffer, not
// write a file).
type Observer interface {
	CellDone(CellEvent)
	TaskDone(TaskEvent)
}

// WithObserver installs an observer on the runner.
func WithObserver(o Observer) Option {
	return func(r *Runner) { r.obs = o }
}

// FanOut broadcasts engine events to a dynamic set of observers, so one
// long-lived Runner can feed a permanent sink (a Collector) and
// per-request subscribers (e.g. an SSE progress stream) at the same time.
// Add and Remove are safe while events are being delivered; events arrive
// on the engine's worker goroutines, so subscribers must be cheap and
// non-blocking (buffer, drop, or hand off — never wait). The zero value is
// not usable; call NewFanOut.
type FanOut struct {
	mu   sync.RWMutex
	next int
	obs  map[int]Observer
}

// NewFanOut returns an empty fan-out observer.
func NewFanOut() *FanOut { return &FanOut{obs: map[int]Observer{}} }

// Add subscribes o and returns a token for Remove.
func (f *FanOut) Add(o Observer) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.next
	f.next++
	f.obs[id] = o
	return id
}

// Remove unsubscribes the observer Add returned id for. Removing an
// unknown id is a no-op. Once Remove returns, no further events are
// delivered to that observer (delivery in flight on another goroutine may
// still complete — subscribers that free resources on Remove must
// tolerate one trailing event).
func (f *FanOut) Remove(id int) {
	f.mu.Lock()
	delete(f.obs, id)
	f.mu.Unlock()
}

// CellDone implements Observer by broadcasting to every subscriber.
func (f *FanOut) CellDone(ev CellEvent) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, o := range f.obs {
		o.CellDone(ev)
	}
}

// TaskDone implements Observer by broadcasting to every subscriber.
func (f *FanOut) TaskDone(ev TaskEvent) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, o := range f.obs {
		o.TaskDone(ev)
	}
}

// SetExperiment labels subsequent cells, tasks, and run counters with name
// (e.g. "fig04", "classic/latency"). Labels are process-sequential state:
// experiment drivers set one before scheduling their sweep, and nested
// library calls must not relabel mid-experiment. Safe on a nil runner so
// library entry points can label unconditionally.
func (r *Runner) SetExperiment(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.experiment = name
	r.mu.Unlock()
}

// currentExperiment returns the current experiment label.
func (r *Runner) currentExperiment() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.experiment
}

// countRun attributes one cell attempt to the current experiment label.
func (r *Runner) countRun() {
	r.mu.Lock()
	if r.expRuns == nil {
		r.expRuns = map[string]int64{}
	}
	r.expRuns[r.experiment]++
	r.mu.Unlock()
}

// observedCompute wraps compute with the observer's cell event; with no
// observer it adds nothing (not even a clock read).
func (r *Runner) observedCompute(key string, decode decodeFunc, rc *remoteCell, fn cellFunc) (any, error) {
	if r.obs == nil {
		v, _, _, err := r.compute(key, decode, rc, fn)
		return v, err
	}
	t0 := time.Now()
	v, src, attempts, err := r.compute(key, decode, rc, fn)
	ev := CellEvent{
		Experiment: r.currentExperiment(),
		Key:        key,
		Source:     src,
		Attempts:   attempts,
		Value:      v,
		Err:        err,
		Host:       time.Since(t0),
		Start:      t0.Sub(r.epoch),
	}
	if rc != nil {
		ev.Remote, ev.RemoteHost = rc.worker, time.Duration(rc.hostNS)
	}
	r.obs.CellDone(ev)
	return v, err
}
