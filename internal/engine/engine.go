// Package engine is the shared experiment runner: a bounded-worker parallel
// sweep executor with deterministic result ordering, fail-fast cancellation,
// and a content-addressed, error-aware result cache that can persist across
// processes.
//
// Every layer of the suite (figures, classic benchmarks, motif sweeps, SNAP
// scaling profiles, the CLIs) schedules its simulation cells through one
// Runner. Because the simulator is deterministic, host-level concurrency can
// change only wall-clock time, never results — the engine exploits that by
// running independent cells on parallel workers and by memoizing cells under
// a hash of their full configuration, so identical cells shared between
// experiments (e.g. the p=1 baselines of Figs. 4–6/8) are simulated once per
// process (or once per cache directory, with WithDiskCache).
//
// Cell errors are classified before memoization — see Transient and
// IsCancellation: cancellations are never cached (a cell aborted because a
// sibling failed first must stay re-runnable), transient errors are retried
// up to maxAttempts times and never cached, a cell that panics is reported
// as an error (neither retried nor cached) instead of taking the process
// down, and only permanent errors are memoized. Transient failures come from
// the remote executor (a lost worker, an undecodable result) or from a cell
// function itself.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partmb/internal/sim"
)

// Runner executes experiment cells on a bounded worker pool with an
// in-memory (and optionally on-disk) result cache. A Runner is safe for
// concurrent use; the zero value is not usable — call New.
type Runner struct {
	workers   int
	noCache   bool
	ephemeral bool
	disk      *DiskCache
	obs       Observer
	epoch     time.Time
	exec      Executor

	mu         sync.Mutex
	cache      map[string]*cacheEntry
	attempts   map[string]int64
	experiment string
	expRuns    map[string]int64

	cells      int64
	runs       int64
	hits       int64
	retries    int64
	diskHits   int64
	diskWrites int64
	diskReadB  int64
	diskWroteB int64
	remoteRuns int64
	remoteErrs int64
	remoteNS   int64

	// Scheduling accounting: per-lane busy time and the host-time span of
	// all tasks.
	laneBusy  []int64
	spanStart int64
	spanEnd   int64

	// Simulation arenas (see takeArena): sweeps counts the Sweeps running
	// on the runner and arenas holds the idle arenas while any does.
	arenaMu sync.Mutex
	sweeps  int
	arenas  []*sim.Arena
}

// cacheEntry memoizes one cell result with singleflight semantics: the
// first caller computes, every concurrent caller waits on done. Entries
// whose computation ends in a cancellation or transient error are removed
// from the cache before done is closed, so the next caller recomputes
// instead of inheriting a poisoned result.
type cacheEntry struct {
	done chan struct{}
	val  any
	err  error
	// waiters counts the callers that found the entry and share its
	// outcome; guarded by Runner.mu. It lets a test hold the computation
	// open until a known number of callers are committed to this entry.
	waiters int
}

// Option configures a Runner.
type Option func(*Runner)

// Workers bounds the number of concurrently-executing cells; n <= 0 selects
// GOMAXPROCS.
func Workers(n int) Option {
	return func(r *Runner) {
		if n > 0 {
			r.workers = n
		}
	}
}

// WithoutCache disables result memoization, both in memory and on disk
// (used by benchmarks that want to measure raw simulation cost).
func WithoutCache() Option {
	return func(r *Runner) { r.noCache = true }
}

// WithSingleFlight makes the in-memory cell cache ephemeral: concurrent
// callers of the same key still share one computation (and its waiters
// still count as Hits), but the entry is dropped as soon as it settles
// instead of pinning every result in process memory for the Runner's
// lifetime. Long-lived daemons use it together with WithDiskCache: the
// disk cache — with its byte budget and eviction — is the store of
// record, and memory holds only cells currently in flight.
func WithSingleFlight() Option {
	return func(r *Runner) { r.ephemeral = true }
}

// maxAttempts bounds the attempts per cell, first try included, after
// transient failures. Only errors wrapped with Transient are retried, so a
// runner whose cells never fail transiently never re-runs a cell; a lost
// remote worker costs its cells one attempt each. A retry follows at once:
// the simulator is deterministic, so waiting between attempts would only
// slow the sweep without changing any result.
const maxAttempts = 4

// WithDiskCache persists successful cell results under the cache's
// directory and consults it before computing, so repeated invocations reuse
// results across processes. Only cells entered through Cell.Run participate:
// decoding a persisted cell needs its concrete type, which Do's any-typed
// interface cannot provide.
func WithDiskCache(d *DiskCache) Option {
	return func(r *Runner) { r.disk = d }
}

// New returns a Runner with the given options.
func New(opts ...Option) *Runner {
	r := &Runner{
		workers: runtime.GOMAXPROCS(0),
		cache:   map[string]*cacheEntry{},
		epoch:   time.Now(),
	}
	for _, o := range opts {
		o(r)
	}
	r.laneBusy = make([]int64, r.workers)
	r.spanStart = math.MaxInt64
	return r
}

// OrDefault returns r, or a fresh default Runner when r is nil — so library
// entry points can accept an optional runner.
func OrDefault(r *Runner) *Runner {
	if r != nil {
		return r
	}
	return New()
}

// Stats reports cumulative scheduling and cache counters.
type Stats struct {
	// Cells is the number of grid/map cells executed.
	Cells int64
	// Runs is the number of cell attempts actually performed (cache misses
	// plus uncached calls; retried cells count once per attempt).
	Runs int64
	// Hits is the number of in-memory cache hits (cells answered without
	// computing).
	Hits int64
	// Retries is the number of re-attempts after transient failures.
	Retries int64
	// DiskHits / DiskWrites count persistent-cache loads and stores;
	// DiskReadBytes / DiskWriteBytes are the corresponding byte totals of
	// the persisted cell envelopes.
	DiskHits       int64
	DiskWrites     int64
	DiskReadBytes  int64
	DiskWriteBytes int64
	// RemoteRuns counts cell attempts executed on a remote worker through
	// the installed Executor; RemoteErrors counts remote attempts that
	// failed (worker loss, transport, undecodable results — transient,
	// so usually retried); RemoteHost totals the worker-reported host time
	// of successful remote attempts.
	RemoteRuns   int64
	RemoteErrors int64
	RemoteHost   time.Duration
	// Attempts maps the key of every cell that needed more than one attempt
	// to its attempt count (nil when no cell retried).
	Attempts map[string]int64
	// ExperimentRuns maps each experiment label (SetExperiment) to the
	// number of cell attempts performed under it. Runs before any label is
	// set are keyed by "" (nil when nothing ran).
	ExperimentRuns map[string]int64
	// Makespan is the host-time span from the first task's start to the
	// last task's end across every sweep the runner ran (0 when no task
	// ran).
	Makespan time.Duration
	// LaneBusy is the total busy time per worker lane; the gap to Makespan
	// is that lane's idle time.
	LaneBusy []time.Duration
	// Utilization is total busy time over workers x Makespan, in [0,1].
	Utilization float64
}

func (s Stats) String() string {
	out := fmt.Sprintf("%d cells, %d runs, %d cache hits", s.Cells, s.Runs, s.Hits)
	if s.Retries > 0 {
		out += fmt.Sprintf(", %d retries", s.Retries)
	}
	if s.DiskHits > 0 || s.DiskWrites > 0 {
		out += fmt.Sprintf(", %d disk hits (%d bytes read), %d disk writes (%d bytes written)",
			s.DiskHits, s.DiskReadBytes, s.DiskWrites, s.DiskWriteBytes)
	}
	if s.RemoteRuns > 0 || s.RemoteErrors > 0 {
		out += fmt.Sprintf(", %d remote runs (%v worker time, %d remote errors)",
			s.RemoteRuns, s.RemoteHost.Round(time.Microsecond), s.RemoteErrors)
	}
	if labels := s.labeledRuns(); len(labels) > 0 {
		out += ", runs by experiment: " + strings.Join(labels, " ")
	}
	// Scheduling report last: the cache-accounting prefix above is parsed
	// positionally by CI, so new sections only ever append.
	if s.Makespan > 0 {
		out += fmt.Sprintf(", makespan %v, %d lanes %.1f%% busy",
			s.Makespan.Round(time.Microsecond), len(s.LaneBusy), 100*s.Utilization)
	}
	return out
}

// labeledRuns renders the non-empty experiment labels as sorted name=count
// pairs.
func (s Stats) labeledRuns() []string {
	var names []string
	for name := range s.ExperimentRuns {
		if name != "" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s=%d", name, s.ExperimentRuns[name])
	}
	return names
}

// Stats returns a snapshot of the runner's counters.
func (r *Runner) Stats() Stats {
	st := Stats{
		Cells:          atomic.LoadInt64(&r.cells),
		Runs:           atomic.LoadInt64(&r.runs),
		Hits:           atomic.LoadInt64(&r.hits),
		Retries:        atomic.LoadInt64(&r.retries),
		DiskHits:       atomic.LoadInt64(&r.diskHits),
		DiskWrites:     atomic.LoadInt64(&r.diskWrites),
		DiskReadBytes:  atomic.LoadInt64(&r.diskReadB),
		DiskWriteBytes: atomic.LoadInt64(&r.diskWroteB),
	}
	r.remoteStats(&st)
	st.LaneBusy = make([]time.Duration, len(r.laneBusy))
	var busy time.Duration
	for i := range r.laneBusy {
		st.LaneBusy[i] = time.Duration(atomic.LoadInt64(&r.laneBusy[i]))
		busy += st.LaneBusy[i]
	}
	if start, end := atomic.LoadInt64(&r.spanStart), atomic.LoadInt64(&r.spanEnd); end > start {
		st.Makespan = time.Duration(end - start)
		st.Utilization = float64(busy) / (float64(len(r.laneBusy)) * float64(st.Makespan))
	}
	r.mu.Lock()
	if len(r.attempts) > 0 {
		st.Attempts = make(map[string]int64, len(r.attempts))
		for k, v := range r.attempts {
			st.Attempts[k] = v
		}
	}
	if len(r.expRuns) > 0 {
		st.ExperimentRuns = make(map[string]int64, len(r.expRuns))
		for k, v := range r.expRuns {
			st.ExperimentRuns[k] = v
		}
	}
	r.mu.Unlock()
	return st
}

// Key returns a content-addressed cache key: the SHA-256 of the canonical
// JSON encoding of parts. Configurations that marshal identically share a
// key, which is exactly the memoization contract for a deterministic
// simulator. It returns an error when a part cannot be marshalled; callers
// should then run uncached.
func Key(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("engine: unkeyable config: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// decodeFunc rebuilds a typed cell value from its persisted JSON form; nil
// means the call site cannot decode (plain Do), which disables the disk
// cache for that cell.
type decodeFunc func(json.RawMessage) (any, error)

// cellFunc computes a cell's value on arena a (see Runner.takeArena).
type cellFunc func(a *sim.Arena) (any, error)

// Do returns the memoized result for key, computing it with fn on the first
// call. Concurrent calls with the same key compute once and share the
// result. Outcomes are classified before memoization: values and permanent
// errors are cached, cancellations and transient errors are not — the next
// caller recomputes. An empty key disables memoization.
func (r *Runner) Do(key string, fn func() (any, error)) (any, error) {
	return r.do(key, nil, nil, func(*sim.Arena) (any, error) { return fn() })
}

func (r *Runner) do(key string, decode decodeFunc, rc *remoteCell, fn cellFunc) (any, error) {
	if key == "" || r.noCache {
		return r.observedCompute(key, decode, rc, fn)
	}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		e.waiters++
		r.mu.Unlock()
		var t0 time.Time
		if r.obs != nil {
			t0 = time.Now()
		}
		<-e.done
		atomic.AddInt64(&r.hits, 1)
		if r.obs != nil {
			r.obs.CellDone(CellEvent{
				Experiment: r.currentExperiment(),
				Key:        key,
				Source:     SourceMemo,
				Value:      e.val,
				Err:        e.err,
				Host:       time.Since(t0),
				Start:      t0.Sub(r.epoch),
			})
		}
		return e.val, e.err
	}
	e := &cacheEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	e.val, e.err = r.observedCompute(key, decode, rc, fn)
	if r.ephemeral || !cacheable(e.err) {
		// Drop the entry: on a cancellation or exhausted-transient outcome
		// so the next caller recomputes instead of inheriting a poisoned
		// result, and unconditionally under WithSingleFlight so settled
		// cells do not accumulate in memory. Waiters already parked on e
		// share this outcome either way (they were concurrent with the
		// computation).
		r.mu.Lock()
		if r.cache[key] == e {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// compute runs one cell through the disk cache, remote executor and
// retries, reporting where the result came from and how many attempts it
// took (0 when it did not run).
func (r *Runner) compute(key string, decode decodeFunc, rc *remoteCell, fn cellFunc) (any, CellSource, int, error) {
	useDisk := key != "" && !r.noCache && r.disk != nil && decode != nil
	if useDisk {
		// Pin the cell for the whole resolution (load, compute, store):
		// the eviction policy must never delete a cell that is currently
		// being served.
		r.disk.pin(key)
		defer r.disk.unpin(key)
		if v, n, ok := r.disk.load(key, decode); ok {
			atomic.AddInt64(&r.diskHits, 1)
			atomic.AddInt64(&r.diskReadB, n)
			return v, SourceDisk, 0, nil
		}
	}
	var v any
	var err error
	attempt := 1
	for ; ; attempt++ {
		atomic.AddInt64(&r.runs, 1)
		r.countRun()
		if rc != nil && r.exec != nil {
			v, err = r.runRemote(key, rc, decode, fn)
		} else {
			v, err = r.runLocal(fn)
		}
		if err == nil || attempt >= maxAttempts || !IsTransient(err) {
			break
		}
		atomic.AddInt64(&r.retries, 1)
	}
	if attempt > 1 && key != "" {
		r.mu.Lock()
		if r.attempts == nil {
			r.attempts = map[string]int64{}
		}
		r.attempts[key] = int64(attempt)
		r.mu.Unlock()
	}
	if err == nil && useDisk {
		// Persist failures (full disk, unmarshalable value) are not cell
		// failures: the in-memory result stands, the cell just is not
		// reusable across processes.
		if n, serr := r.disk.store(key, v); serr == nil {
			atomic.AddInt64(&r.diskWrites, 1)
			atomic.AddInt64(&r.diskWroteB, n)
		}
	}
	return v, SourceRun, attempt, err
}

// runLocal runs one attempt of a cell on this goroutine, on an arena checked
// out for the attempt; a panic becomes the attempt's error.
func (r *Runner) runLocal(fn cellFunc) (any, error) {
	a := r.takeArena()
	v, err := call(fn, a)
	r.putArena(a)
	return v, err
}

// takeArena checks out a simulation arena for one local cell run: an idle
// one, or a new one. An arena serves one cell at a time, so the next cell
// run on it starts with the coroutines, events and generators the last one
// left behind, and arenas are closed when the last active Sweep returns, so
// no coroutine outlives the outermost Sweep. Outside any Sweep it returns
// nil, the empty arena.
func (r *Runner) takeArena() *sim.Arena {
	r.arenaMu.Lock()
	defer r.arenaMu.Unlock()
	if r.sweeps == 0 {
		return nil
	}
	if n := len(r.arenas); n > 0 {
		a := r.arenas[n-1]
		r.arenas = r.arenas[:n-1]
		return a
	}
	return new(sim.Arena)
}

// putArena returns an arena takeArena handed out, closing it when every
// Sweep has returned in the meantime.
func (r *Runner) putArena(a *sim.Arena) {
	if a == nil {
		return
	}
	r.arenaMu.Lock()
	keep := r.sweeps > 0
	if keep {
		r.arenas = append(r.arenas, a)
	}
	r.arenaMu.Unlock()
	if !keep {
		a.Close()
	}
}

// sweepBegun counts a Sweep in; the matching sweepDone closes the idle
// arenas when it was the last one running.
func (r *Runner) sweepBegun() {
	r.arenaMu.Lock()
	r.sweeps++
	r.arenaMu.Unlock()
}

func (r *Runner) sweepDone() {
	r.arenaMu.Lock()
	r.sweeps--
	var idle []*sim.Arena
	if r.sweeps == 0 {
		idle, r.arenas = r.arenas, nil
	}
	r.arenaMu.Unlock()
	for _, a := range idle {
		a.Close()
	}
}

// Grid evaluates cell over an nRows x nCols grid on the worker pool and
// returns the results in row-major order; cost, when non-nil, is the
// per-cell cost function of Sweep, which Grid shares every guarantee with.
func (r *Runner) Grid(ctx context.Context, nRows, nCols int, cost func(row, col int) float64, cell func(ctx context.Context, row, col int) (any, error)) ([][]any, error) {
	cells := make([][]any, nRows)
	for i := range cells {
		cells[i] = make([]any, nCols)
	}
	var flatCost func(i int) float64
	if cost != nil {
		flatCost = func(i int) float64 { return cost(i/nCols, i%nCols) }
	}
	flat := func(ctx context.Context, i int) (any, error) {
		return cell(ctx, i/nCols, i%nCols)
	}
	results, err := r.Sweep(ctx, nRows*nCols, flatCost, flat)
	if err != nil {
		return nil, err
	}
	for i, v := range results {
		cells[i/nCols][i%nCols] = v
	}
	return cells, nil
}

// Map is Sweep without a cost function: cells dispatch in index order.
func (r *Runner) Map(ctx context.Context, n int, fn func(ctx context.Context, i int) (any, error)) ([]any, error) {
	return r.Sweep(ctx, n, nil, fn)
}

// indexedError carries the dispatch index of a failed cell so "first error
// wins" can be decided by index, not completion order. Cancellation errors
// (context.Canceled and context.DeadlineExceeded alike) rank below real
// errors: a cell that aborts because a later cell already failed must not
// mask the real failure.
type indexedError struct {
	index  int
	err    error
	cancel bool
}

// laneTask is one dispatched index handed to a lane, with the task context
// fail-fast cancels it through.
type laneTask struct {
	index  int
	ctx    context.Context
	cancel context.CancelFunc
}

// Sweep evaluates fn over n items on the worker pool and returns the results
// in index order. cost(i) is the relative cost of item i in any unit (larger
// = more expensive; typically message size x partition count): items
// dispatch in descending cost, ties by ascending index, so the expensive
// tail of a geometric sweep starts first instead of serializing the end of
// the run. Sweep calls cost exactly once per index, on the caller's
// goroutine, before the first fn call; a nil cost dispatches in index order.
// Only wall-clock time depends on cost — results, memoization, and error
// selection do not. After the first error, cells above the failure bound are
// no longer dispatched and running cells above it have their contexts
// cancelled; the returned error is the one from the smallest index that
// failed — deterministic regardless of dispatch order and worker
// interleaving (the invariant schedule.go documents).
//
// While a Sweep runs, every cell computed locally on the runner — by its
// lanes, or by a nested Sweep — builds its simulation on a checked-out
// sim.Arena (see Cell), and the arenas are closed when the outermost Sweep
// returns.
func (r *Runner) Sweep(ctx context.Context, n int, cost func(i int) float64, fn func(ctx context.Context, i int) (any, error)) ([]any, error) {
	if n == 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r.sweepBegun()
	defer r.sweepDone()
	exp := r.currentExperiment()
	var order []int // nil = ascending index
	if cost != nil {
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = cost(i)
		}
		order = lptOrder(costs)
	}

	results := make([]any, n)
	var mu sync.Mutex
	var firstReal, firstCancel *indexedError
	running := map[int]context.CancelFunc{}

	// bound is the smallest recorded failing index (n while error-free):
	// indices above it are skipped or cancelled, indices below it always
	// run to natural completion — the determinism invariant schedule.go
	// documents. Callers hold mu.
	bound := func() int {
		b := n
		if firstReal != nil && firstReal.index < b {
			b = firstReal.index
		}
		if firstCancel != nil && firstCancel.index < b {
			b = firstCancel.index
		}
		return b
	}

	fail := func(i int, err error) {
		isCancel := IsCancellation(err)
		mu.Lock()
		if isCancel {
			if firstCancel == nil || i < firstCancel.index {
				firstCancel = &indexedError{index: i, err: err, cancel: true}
			}
		} else if firstReal == nil || i < firstReal.index {
			firstReal = &indexedError{index: i, err: err}
		}
		// Fail fast above the bound only: cancelling a smaller index could
		// change its outcome and with it the reported error.
		b := bound()
		for idx, cancelTask := range running {
			if idx > b {
				cancelTask()
			}
		}
		mu.Unlock()
	}

	run := func(lane int, t laneTask) {
		start := time.Since(r.epoch)
		v, err := fn(t.ctx, t.index)
		end := time.Since(r.epoch)
		mu.Lock()
		delete(running, t.index)
		mu.Unlock()
		t.cancel() // release the per-task context
		r.recordTask(lane, start, end)
		if r.obs != nil {
			r.obs.TaskDone(TaskEvent{
				Experiment: exp,
				Index:      t.index,
				Worker:     lane,
				Err:        err,
				Start:      start,
				End:        end,
			})
		}
		if err != nil {
			fail(t.index, err)
			return
		}
		results[t.index] = v
	}

	// Worker lanes are goroutines that live for the whole sweep, so a stack
	// grown by one cell serves the next instead of growing again on a fresh
	// goroutine. They double as the concurrency bound and, for the observer,
	// as stable timeline rows: a task holds its lane for its whole run, so
	// tasks sharing a lane never overlap in host time. idle holds the lanes
	// waiting for work; the dispatcher takes one and hands it the index over
	// that lane's own channel.
	idle := make(chan int, min(r.workers, n))
	work := make([]chan laneTask, cap(idle))
	var wg sync.WaitGroup
	for lane := range work {
		work[lane] = make(chan laneTask, 1)
		idle <- lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range work[lane] {
				run(lane, t)
				idle <- lane
			}
		}()
	}

	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		mu.Lock()
		skip := i > bound()
		mu.Unlock()
		if skip {
			continue
		}
		var lane int
		select {
		case <-ctx.Done():
		case lane = <-idle:
		}
		if ctx.Err() != nil {
			break
		}
		// Re-check under mu: the bound may have tightened while waiting for
		// a lane, and registering in running must be atomic with the check
		// so fail() either sees this task or the dispatch loop skips it.
		mu.Lock()
		if i > bound() {
			mu.Unlock()
			idle <- lane
			continue
		}
		tctx, cancelTask := context.WithCancel(ctx)
		running[i] = cancelTask
		mu.Unlock()
		atomic.AddInt64(&r.cells, 1)
		work[lane] <- laneTask{index: i, ctx: tctx, cancel: cancelTask}
	}
	for _, w := range work {
		close(w)
	}
	wg.Wait()

	if firstReal != nil {
		return nil, firstReal.err
	}
	if firstCancel != nil {
		return nil, firstCancel.err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// recordTask folds one completed task into the scheduling accounting: its
// lane's busy time and the runner-wide task span (makespan).
func (r *Runner) recordTask(lane int, start, end time.Duration) {
	busy := int64(end - start)
	if busy < 0 {
		busy = 0
	}
	if lane >= 0 && lane < len(r.laneBusy) {
		atomic.AddInt64(&r.laneBusy[lane], busy)
	}
	for {
		cur := atomic.LoadInt64(&r.spanStart)
		if int64(start) >= cur || atomic.CompareAndSwapInt64(&r.spanStart, cur, int64(start)) {
			break
		}
	}
	for {
		cur := atomic.LoadInt64(&r.spanEnd)
		if int64(end) <= cur || atomic.CompareAndSwapInt64(&r.spanEnd, cur, int64(end)) {
			break
		}
	}
}
