package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"partmb/internal/engine"
	"partmb/internal/sim"
)

// WorkerConfig tunes a Worker runtime.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:9091).
	Coordinator string
	// Name labels this worker in journals, metrics, and traces. Defaults to
	// the coordinator-issued worker id.
	Name string
	// Parallel is the number of concurrent task loops (default 1).
	Parallel int
	// Heartbeat is the liveness ping period (default 2s); keep it several
	// times shorter than the coordinator's heartbeat timeout.
	Heartbeat time.Duration
	// PollWait is the long-poll duration per task request (default 10s).
	PollWait time.Duration
	// Throttle, when positive, sleeps before executing each task — a test
	// and CI aid that keeps a sweep in flight long enough to exercise
	// mid-sweep worker loss deterministically.
	Throttle time.Duration
	// Client is the HTTP client to use; nil builds one without a global
	// timeout (long polls must outlive any client deadline).
	Client *http.Client
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
}

// Worker executes coordinator tasks through the engine's kind registry —
// every engine.Cell the binary links: it registers, heartbeats, long-polls
// for tasks, runs each through its kind's execute function, and posts
// results back. The same runtime backs
// cmd/sweepworker and the in-process two-worker CI harness.
type Worker struct {
	cfg      WorkerConfig
	client   *http.Client
	logf     func(format string, args ...any)
	executed int64

	mu sync.Mutex
	id string
}

// NewWorker returns a worker runtime for cfg; call Run to operate it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 10 * time.Second
	}
	w := &Worker{cfg: cfg, client: cfg.Client, logf: cfg.Logf}
	if w.client == nil {
		w.client = &http.Client{}
	}
	if w.logf == nil {
		w.logf = func(string, ...any) {}
	}
	return w
}

// ID returns the coordinator-issued worker id ("" before registration).
func (w *Worker) ID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// Executed returns the number of tasks this worker has completed (posted a
// result for), successful or not.
func (w *Worker) Executed() int64 { return atomic.LoadInt64(&w.executed) }

// Run registers with the coordinator and serves tasks until ctx is
// cancelled, then leaves gracefully (best-effort) and returns nil. A
// registration that cannot be established before ctx dies returns the
// ctx error.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1 + w.cfg.Parallel)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.cfg.Parallel; i++ {
		go func() {
			defer wg.Done()
			w.taskLoop(ctx)
		}()
	}
	wg.Wait()
	w.leave()
	return nil
}

// register obtains a worker id, retrying with backoff until ctx dies — a
// worker booted before its coordinator just waits for it.
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		status, err := w.post(ctx, PathRegister, RegisterRequest{Schema: WireSchema, Name: w.cfg.Name}, &resp)
		switch {
		case err == nil && status == http.StatusOK && resp.Schema == WireSchema && resp.WorkerID != "":
			w.mu.Lock()
			w.id = resp.WorkerID
			w.mu.Unlock()
			w.logf("sweepworker: registered with %s as %s", w.cfg.Coordinator, resp.WorkerID)
			return nil
		case err == nil && status == http.StatusBadRequest:
			// Schema mismatch: a newer/older coordinator. Retrying cannot
			// help, and the operator needs to see it.
			return fmt.Errorf("remote: coordinator rejected registration (wire schema mismatch?)")
		case ctx.Err() != nil:
			return ctx.Err()
		}
		w.logf("sweepworker: register failed (status %d, err %v); retrying in %v", status, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(w.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		status, err := w.post(ctx, PathHeartbeat, HeartbeatRequest{Schema: WireSchema, WorkerID: w.ID()}, nil)
		if status == http.StatusGone {
			// The coordinator expired (or restarted past) us; rejoin.
			w.logf("sweepworker: coordinator dropped us; re-registering")
			if err := w.register(ctx); err != nil {
				return
			}
		} else if err != nil && ctx.Err() == nil {
			w.logf("sweepworker: heartbeat failed: %v", err)
		}
	}
}

// taskLoop long-polls for tasks and executes them until ctx dies. An
// in-flight task is finished and its result posted even after cancellation,
// so a graceful shutdown never strands a leased cell. The loop's tasks build
// their simulations on one sim.Arena, each starting with what the task before
// it left (see engine.NewCell); it is closed when the loop ends, so no
// coroutine outlives Run.
func (w *Worker) taskLoop(ctx context.Context) {
	var a sim.Arena
	defer a.Close()
	for ctx.Err() == nil {
		task, ok := w.poll(ctx)
		if !ok {
			continue
		}
		res := w.execute(&a, task)
		atomic.AddInt64(&w.executed, 1)
		w.postResult(res)
	}
}

// poll requests the next task; false means "none yet" (long-poll timeout,
// transport hiccup, or expiry-triggered re-registration).
func (w *Worker) poll(ctx context.Context) (Task, bool) {
	var task Task
	status, err := w.post(ctx, PathPoll, PollRequest{
		Schema:   WireSchema,
		WorkerID: w.ID(),
		WaitMS:   int(w.cfg.PollWait / time.Millisecond),
	}, &task)
	switch {
	case err == nil && status == http.StatusOK && task.Schema == WireSchema && task.ID != 0:
		return task, true
	case status == http.StatusGone:
		w.logf("sweepworker: coordinator dropped us; re-registering")
		w.register(ctx)
	case err != nil && ctx.Err() == nil:
		w.logf("sweepworker: poll failed: %v", err)
		select {
		case <-ctx.Done():
		case <-time.After(200 * time.Millisecond):
		}
	}
	return Task{}, false
}

// execute runs one task through the kind registry on arena a and builds its
// Result, classifying errors for the wire with the engine's taxonomy.
func (w *Worker) execute(a *sim.Arena, t Task) Result {
	res := Result{Schema: WireSchema, WorkerID: w.ID(), ID: t.ID, Key: t.Key}
	fn := engine.LookupKind(t.Kind)
	if fn == nil {
		// Transient: another (heterogeneous) worker may know the kind, and
		// with none that do the engine's bounded retries fall back cleanly.
		res.Err = fmt.Sprintf("remote: unknown cell kind %q (worker knows %v)", t.Kind, engine.Kinds())
		res.ErrClass = ErrClassTransient
		return res
	}
	if w.cfg.Throttle > 0 {
		time.Sleep(w.cfg.Throttle)
	}
	t0 := time.Now()
	v, err := runKind(fn, a, t.Config)
	res.HostNS = time.Since(t0).Nanoseconds()
	if err != nil {
		res.Err = err.Error()
		res.ErrClass = ErrClassPermanent
		if engine.IsTransient(err) {
			res.ErrClass = ErrClassTransient
		}
		return res
	}
	raw, merr := json.Marshal(v)
	if merr != nil {
		res.Err = fmt.Sprintf("remote: marshalling %s result: %v", t.Kind, merr)
		res.ErrClass = ErrClassPermanent
		return res
	}
	res.Value = raw
	return res
}

// runKind executes one cell on arena a, turning a panic into an ordinary
// (permanent) cell error: a bad config must fail its own task, not the worker
// and the other cells it holds leases on. A panic that unwinds through the
// cell's drive leaves nothing on the arena (see sim.Arena).
func runKind(fn engine.KindFunc, a *sim.Arena, config json.RawMessage) (v any, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = nil, fmt.Errorf("remote: cell panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return fn(a, config)
}

// postResult delivers a result, retrying briefly: losing a computed result
// to a transport blip would force a whole re-execution elsewhere.
func (w *Worker) postResult(res Result) {
	backoff := 100 * time.Millisecond
	for attempt := 0; attempt < 5; attempt++ {
		status, err := w.post(context.Background(), PathResult, res, nil)
		if err == nil && status < 500 {
			return
		}
		w.logf("sweepworker: posting result for task %d failed (status %d, err %v)", res.ID, status, err)
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// leave announces a graceful departure, so the coordinator need not wait
// out the heartbeat timeout to stop counting this worker.
func (w *Worker) leave() {
	id := w.ID()
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.post(ctx, PathLeave, LeaveRequest{Schema: WireSchema, WorkerID: id}, nil)
	w.logf("sweepworker: left %s", w.cfg.Coordinator)
}

// post sends one JSON message and decodes the response into out (when
// non-nil and the status is 200).
func (w *Worker) post(ctx context.Context, path string, msg, out any) (int, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
