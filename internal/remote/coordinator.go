package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"partmb/internal/engine"
)

// CoordinatorConfig tunes a Coordinator.
type CoordinatorConfig struct {
	// HeartbeatTimeout is how long a silent worker stays live; past it the
	// worker is declared lost and its leased tasks fail transiently (the
	// engine's retry policy then re-dispatches them). 0 means the 10s
	// default; negative disables expiry (tests drive it explicitly).
	HeartbeatTimeout time.Duration
	// Logf, when non-nil, receives one line per lifecycle event (register,
	// leave, lost worker) — wire it to log.Printf in daemons.
	Logf func(format string, args ...any)
}

// DefaultHeartbeatTimeout is the liveness window workers must heartbeat
// within; the worker runtime heartbeats several times per window.
const DefaultHeartbeatTimeout = 10 * time.Second

// maxMessageBytes caps the body of one worker message. The largest cell
// value in the tree is kilobytes; the cap only keeps a broken or hostile
// worker from making the coordinator buffer an arbitrarily large POST.
const maxMessageBytes = 64 << 20

// Coordinator is the driver-side half of distributed execution. It is both
// an engine.Executor — Execute dispatches one cell to a registered worker
// and blocks until its result crosses back — and an http.Handler serving
// the worker wire protocol under /v1/workers/.
//
// Scheduling: Execute appends each cell to one FIFO and a polling worker
// leases its head. The engine releases cells in descending cost and a worker
// polls only when one of its task loops is free, so whichever slot frees
// first takes the longest cell not yet started — LPT list scheduling, with
// no cost model and no assignment to undo.
//
// Failure: a worker that misses its heartbeat window (or leaves) has its
// leased cells failed with an engine-transient error; the runner's
// retry re-enters Execute, which queues the cell for the survivors.
// Queued cells belong to no worker and are untouched by a loss — unless it
// was the last live worker, in which case the queue fails the same way and
// each retry falls back to computing locally via ErrNoWorkers. Either way
// the sweep completes, and because cells are content-addressed its journal
// is unchanged.
type Coordinator struct {
	timeout time.Duration
	logf    func(format string, args ...any)
	now     func() time.Time // injectable for tests
	maxBody int64            // maxMessageBytes; tests lower it
	mux     *http.ServeMux
	done    chan struct{}
	closeFn sync.Once

	mu         sync.Mutex
	workers    map[string]*workerState
	order      []string // registration order, for stable iteration
	queue      []*pending
	wake       chan struct{} // made by a parking poll; closed and cleared by the next enqueue
	leases     map[int64]*pending
	nextTask   int64
	nextWorker int64
	dispatched int64
	completed  int64
	failed     int64
	lost       int64
}

// workerState is the coordinator's view of one registered worker.
type workerState struct {
	id        string
	name      string
	lastSeen  time.Time
	live      bool
	leased    map[int64]*pending // polled, awaiting result
	completed int64
}

// pending is one in-flight Execute call: in the queue until a poll leases
// it, then in leases until its result (or its worker's loss) settles it.
type pending struct {
	task  Task
	owner *workerState // lease holder; nil while queued
	done  chan outcome // buffered 1; exactly one send per pending
}

type outcome struct {
	res engine.RemoteResult
	err error
}

// NewCoordinator returns a coordinator ready to mount on an HTTP server and
// install on a runner with engine.WithExecutor. Close releases its
// background liveness reaper.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	timeout := cfg.HeartbeatTimeout
	if timeout == 0 {
		timeout = DefaultHeartbeatTimeout
	}
	c := &Coordinator{
		timeout: timeout,
		logf:    cfg.Logf,
		now:     time.Now,
		maxBody: maxMessageBytes,
		done:    make(chan struct{}),
		workers: map[string]*workerState{},
		leases:  map[int64]*pending{},
	}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc(PathRegister, c.handleRegister)
	c.mux.HandleFunc(PathHeartbeat, c.handleHeartbeat)
	c.mux.HandleFunc(PathPoll, c.handlePoll)
	c.mux.HandleFunc(PathResult, c.handleResult)
	c.mux.HandleFunc(PathLeave, c.handleLeave)
	c.mux.HandleFunc(PathStatus, c.handleStatus)
	if timeout > 0 {
		go c.reap(timeout)
	}
	return c
}

// Close stops the liveness reaper and unblocks idle long-polls. It does not
// fail in-flight cells; call it after the runner is drained.
func (c *Coordinator) Close() { c.closeFn.Do(func() { close(c.done) }) }

// reap periodically expires workers whose heartbeats stopped, so leased
// cells of a dead worker fail (and retry) even while every Execute is
// parked waiting on a result.
func (c *Coordinator) reap(timeout time.Duration) {
	period := timeout / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			c.mu.Lock()
			c.expireLocked(c.now())
			c.mu.Unlock()
		case <-c.done:
			return
		}
	}
}

// ServeHTTP serves the worker wire protocol; mount the coordinator at the
// server root (paths are absolute) or pass requests for /v1/workers/*.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Execute implements engine.Executor: it queues one cell for the next
// polling worker and blocks until the result (or the worker's loss,
// surfaced as a transient error) crosses back. With no live workers it
// returns engine.ErrNoWorkers and the runner computes the cell locally.
func (c *Coordinator) Execute(ctx context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	p := &pending{done: make(chan outcome, 1)}
	c.mu.Lock()
	c.expireLocked(c.now())
	if !c.anyLiveLocked() {
		c.mu.Unlock()
		return engine.RemoteResult{}, engine.ErrNoWorkers
	}
	c.nextTask++
	p.task = Task{
		Schema:     WireSchema,
		ID:         c.nextTask,
		Key:        t.Key,
		Experiment: t.Experiment,
		Kind:       t.Kind,
		Config:     t.Config,
	}
	c.dispatched++
	c.queue = append(c.queue, p)
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
	c.mu.Unlock()

	select {
	case out := <-p.done:
		return out.res, out.err
	case <-ctx.Done():
		c.abandon(p)
		return engine.RemoteResult{}, ctx.Err()
	}
}

// abandon withdraws a still-queued pending after its Execute context died.
// A leased pending is left to finish: its result lands in the buffered done
// channel and is garbage-collected with the pending.
func (c *Coordinator) abandon(p *pending) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.queue, p); i >= 0 {
		c.queue = slices.Delete(c.queue, i, i+1)
	}
}

// anyLiveLocked reports whether some registered worker is live.
func (c *Coordinator) anyLiveLocked() bool {
	for _, w := range c.workers {
		if w.live {
			return true
		}
	}
	return false
}

// takeLocked leases the head of the queue to w until its result (or w's
// loss) settles it; nil when the queue is empty.
func (c *Coordinator) takeLocked(w *workerState) *pending {
	if len(c.queue) == 0 {
		return nil
	}
	p := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	p.owner = w
	w.leased[p.task.ID] = p
	c.leases[p.task.ID] = p
	return p
}

// expireLocked declares every worker silent past the heartbeat window lost.
func (c *Coordinator) expireLocked(now time.Time) {
	if c.timeout <= 0 {
		return
	}
	for _, id := range c.order {
		w := c.workers[id]
		if w.live && now.Sub(w.lastSeen) > c.timeout {
			c.lost++
			c.logf("remote: worker %s (%s) lost (no heartbeat for %v)", w.name, w.id, now.Sub(w.lastSeen).Round(time.Millisecond))
			c.dropLocked(w)
		}
	}
}

// dropLocked removes w from service: its leased cells fail transiently so
// the engine's retry re-dispatches them. The queue belongs to no worker and
// stays for the survivors; when w was the last one, nobody is left to pull
// it, so it fails the same way and each retry's Execute falls back to local
// via ErrNoWorkers.
func (c *Coordinator) dropLocked(w *workerState) {
	w.live = false
	for id, p := range w.leased {
		delete(w.leased, id)
		delete(c.leases, id)
		p.owner = nil
		c.failed++
		p.done <- outcome{err: engine.Transientf("remote: worker %s (%s) lost mid-cell", w.name, w.id)}
	}
	if c.anyLiveLocked() {
		return
	}
	for _, p := range c.queue {
		c.failed++
		p.done <- outcome{err: engine.Transientf("remote: worker %s (%s) lost with no surviving workers", w.name, w.id)}
	}
	c.queue = nil
}

// Status returns a point-in-time snapshot of workers and dispatch counters.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Schema:     WireSchema,
		Dispatched: c.dispatched,
		Completed:  c.completed,
		Failed:     c.failed,
		Lost:       c.lost,
		Queued:     len(c.queue),
	}
	for _, id := range c.order {
		w := c.workers[id]
		st.Workers = append(st.Workers, WorkerStatus{
			ID:        w.id,
			Name:      w.name,
			Live:      w.live,
			Leased:    len(w.leased),
			Completed: w.completed,
		})
	}
	return st
}

// --- HTTP handlers -------------------------------------------------------

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !c.decode(w, r, &req, &req.Schema) {
		return
	}
	c.mu.Lock()
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	name := req.Name
	if name == "" {
		name = id
	}
	c.workers[id] = &workerState{
		id:       id,
		name:     name,
		lastSeen: c.now(),
		live:     true,
		leased:   map[int64]*pending{},
	}
	c.order = append(c.order, id)
	c.mu.Unlock()
	c.logf("remote: worker %s registered as %s", name, id)
	writeJSON(w, http.StatusOK, RegisterResponse{Schema: WireSchema, WorkerID: id})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.decode(w, r, &req, &req.Schema) {
		return
	}
	c.mu.Lock()
	ws := c.workers[req.WorkerID]
	live := ws != nil && ws.live
	if live {
		ws.lastSeen = c.now()
	}
	c.mu.Unlock()
	if !live {
		http.Error(w, "remote: unknown or expired worker; re-register", http.StatusGone)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !c.decode(w, r, &req, &req.Schema) {
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	deadline := c.now().Add(wait)
	for {
		now := c.now()
		c.mu.Lock()
		ws := c.workers[req.WorkerID]
		if ws == nil || !ws.live {
			c.mu.Unlock()
			http.Error(w, "remote: unknown or expired worker; re-register", http.StatusGone)
			return
		}
		ws.lastSeen = now
		c.expireLocked(now)
		if p := c.takeLocked(ws); p != nil {
			c.mu.Unlock()
			writeJSON(w, http.StatusOK, p.task)
			return
		}
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake := c.wake
		c.mu.Unlock()

		remaining := deadline.Sub(c.now())
		if remaining <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// Cap each nap so a parked poll keeps its worker's lastSeen fresh
		// and notices the worker's own expiry.
		nap := remaining
		if nap > 250*time.Millisecond {
			nap = 250 * time.Millisecond
		}
		timer := time.NewTimer(nap)
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-c.done:
			timer.Stop()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		timer.Stop()
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var res Result
	if !c.decode(w, r, &res, &res.Schema) {
		return
	}
	c.mu.Lock()
	if ws := c.workers[res.WorkerID]; ws != nil && ws.live {
		ws.lastSeen = c.now()
	}
	p := c.leases[res.ID]
	if p == nil || p.owner == nil || p.owner.id != res.WorkerID {
		// Stale: the task was re-dispatched after this worker was presumed
		// lost. The newer resolution is authoritative; drop this one.
		c.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	owner := p.owner
	delete(c.leases, res.ID)
	delete(owner.leased, res.ID)
	if res.Err != "" {
		c.failed++
		err := errors.New(res.Err)
		if res.ErrClass != ErrClassPermanent {
			err = engine.Transient(err)
		}
		p.done <- outcome{err: err}
	} else {
		c.completed++
		owner.completed++
		p.done <- outcome{res: engine.RemoteResult{Value: res.Value, HostNS: res.HostNS, Worker: owner.name}}
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !c.decode(w, r, &req, &req.Schema) {
		return
	}
	c.mu.Lock()
	if ws := c.workers[req.WorkerID]; ws != nil && ws.live {
		c.logf("remote: worker %s (%s) left", ws.name, ws.id)
		c.dropLocked(ws)
	}
	c.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "remote: GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, http.StatusOK, c.Status())
}

// decode reads a POSTed JSON message and checks its wire schema, writing
// the HTTP error itself when the message is unusable.
func (c *Coordinator) decode(w http.ResponseWriter, r *http.Request, v any, schema *int) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "remote: POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.maxBody)).Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("remote: bad request body: %v", err), code)
		return false
	}
	if *schema != WireSchema {
		http.Error(w, fmt.Sprintf("remote: wire schema %d, want %d", *schema, WireSchema), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
