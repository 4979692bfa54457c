package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/obs"
)

// testHarness boots a coordinator on an httptest server. The heartbeat
// timeout is generous by default so loaded CI machines never expire a
// healthy in-process worker; loss tests pass their own.
func testHarness(t *testing.T, timeout time.Duration) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: timeout, Logf: t.Logf})
	hs := httptest.NewServer(c)
	t.Cleanup(func() {
		hs.Close()
		c.Close()
	})
	return c, hs
}

// startWorker runs a Worker runtime in-process until test cleanup.
func startWorker(t *testing.T, url, name string, throttle time.Duration) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{
		Coordinator: url,
		Name:        name,
		Heartbeat:   50 * time.Millisecond,
		PollWait:    500 * time.Millisecond,
		Throttle:    throttle,
		Logf:        t.Logf,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	waitUntil(t, 5*time.Second, "worker "+name+" registered", func() bool { return w.ID() != "" })
	return w
}

func waitUntil(t *testing.T, d time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The kind registry is process-global and rejects duplicates, so test kinds
// register once per process, not per test run (-count=N).
func init() {
	RegisterKind("test.panic", func(json.RawMessage) (any, error) { panic("boom") })
	RegisterKind("test.ok", func(json.RawMessage) (any, error) { return 7, nil })
}

// tryPost posts msg to url, decoding a 200 response into out (when non-nil),
// and returns the HTTP status. Safe off the test goroutine.
func tryPost(url string, msg, out any) (int, error) {
	body, err := json.Marshal(msg)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// postJSON is tryPost failing the test on a transport or decode error.
func postJSON(t *testing.T, url string, msg, out any) int {
	t.Helper()
	code, err := tryPost(url, msg, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// registerRaw registers a coordinator-only worker the test drives by hand
// over raw HTTP (no Worker runtime, no heartbeats).
func registerRaw(t *testing.T, url, name string) string {
	t.Helper()
	var resp RegisterResponse
	if code := postJSON(t, url+PathRegister, RegisterRequest{Schema: WireSchema, Name: name}, &resp); code != http.StatusOK {
		t.Fatalf("register %s: status %d", name, code)
	}
	return resp.WorkerID
}

// pollRaw leases one task as the given worker, failing the test on timeout.
func pollRaw(t *testing.T, url, workerID string, waitMS int) Task {
	t.Helper()
	var task Task
	code := postJSON(t, url+PathPoll, PollRequest{Schema: WireSchema, WorkerID: workerID, WaitMS: waitMS}, &task)
	if code != http.StatusOK || task.ID == 0 {
		t.Fatalf("poll as %s: status %d, task %+v", workerID, code, task)
	}
	return task
}

// executeRaw dispatches one "test.raw" cell (a kind only hand-driven raw
// workers serve) on its own goroutine and returns where its outcome lands.
func executeRaw(c *Coordinator, key string) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		res, err := c.Execute(context.Background(), engine.RemoteTask{Key: key, Kind: "test.raw", Config: json.RawMessage(`{}`)})
		ch <- outcome{res, err}
	}()
	return ch
}

// finishRaw posts a successful result for task as the given worker.
func finishRaw(t *testing.T, url, workerID string, task Task) {
	t.Helper()
	code := postJSON(t, url+PathResult, Result{
		Schema: WireSchema, WorkerID: workerID, ID: task.ID, Key: task.Key,
		Value: json.RawMessage(`{"ok":true}`), HostNS: 1000,
	}, nil)
	if code != http.StatusNoContent {
		t.Fatalf("result post: status %d", code)
	}
}

// leaveRaw announces the given worker's departure.
func leaveRaw(t *testing.T, url, workerID string) {
	t.Helper()
	if code := postJSON(t, url+PathLeave, LeaveRequest{Schema: WireSchema, WorkerID: workerID}, nil); code != http.StatusNoContent {
		t.Fatalf("leave: status %d", code)
	}
}

// The headline correctness property (ISSUE 9): a distributed sweep's
// deterministic journal is byte-identical to a local run's, because cells
// are content-addressed and every volatile field (who ran a cell, where,
// when) is zeroed by obs.WriteJournal.
func TestDistributedJournalMatchesLocal(t *testing.T) {
	base := core.Config{Partitions: 4, Iterations: 3, Warmup: -1}
	sizes := []int64{4096, 8192, 16384, 32768}

	run := func(opts ...engine.Option) ([]byte, engine.Stats) {
		t.Helper()
		col := obs.NewCollector()
		rn := engine.New(append([]engine.Option{engine.Workers(2), engine.WithObserver(col)}, opts...)...)
		rn.SetExperiment("dist")
		if _, err := core.SweepMessageSizes(rn, base, sizes); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteJournal(&buf, "remote-test", col, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), rn.Stats()
	}

	local, lst := run()
	if lst.RemoteRuns != 0 {
		t.Fatalf("local run reported %d remote runs", lst.RemoteRuns)
	}

	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	startWorker(t, hs.URL, "worker-2", 0)
	dist, dst := run(engine.WithExecutor(c))

	if dst.RemoteRuns != dst.Runs || dst.RemoteRuns != int64(len(sizes)) {
		t.Errorf("distributed run: %d/%d cells ran remotely, want all %d", dst.RemoteRuns, dst.Runs, len(sizes))
	}
	if !bytes.Equal(local, dist) {
		t.Errorf("distributed journal differs from local:\n--- local ---\n%s\n--- distributed ---\n%s", local, dist)
	}
	j, err := obs.ReadJournal(bytes.NewReader(dist))
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Cells) != len(sizes) {
		t.Errorf("journal has %d cells, want %d", len(j.Cells), len(sizes))
	}
	for _, cl := range j.Cells {
		if cl.Remote != "" || cl.RemoteHostNS != 0 || cl.StartNS != 0 {
			t.Errorf("deterministic journal leaked volatile remote fields: %+v", cl)
		}
	}
}

// A worker that leases a cell and goes silent is declared lost: the lease
// fails transiently, the engine's retry re-dispatches, and a survivor that
// registered in the meantime completes the sweep.
func TestWorkerLossRequeuesToSurvivor(t *testing.T) {
	c, hs := testHarness(t, 400*time.Millisecond)
	lame := registerRaw(t, hs.URL, "lame")

	rn := engine.New(engine.WithExecutor(c))
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	cfg := core.Config{MessageBytes: 4096, Partitions: 4, Iterations: 2, Warmup: -1}
	go func() {
		res, err := core.RunCached(rn, cfg)
		ch <- outcome{res, err}
	}()

	// The lame worker leases the cell... and is never heard from again.
	task := pollRaw(t, hs.URL, lame, 5000)
	if task.Kind != "core.Run" {
		t.Fatalf("leased task kind %q, want %q", task.Kind, "core.Run")
	}
	survivor := startWorker(t, hs.URL, "survivor", 0)

	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("sweep failed after worker loss: %v", out.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not complete after worker loss")
	}
	st := rn.Stats()
	if st.Retries < 1 {
		t.Errorf("retries = %d, want >= 1 (lost lease must retry)", st.Retries)
	}
	if st.RemoteErrors < 1 {
		t.Errorf("remote errors = %d, want >= 1", st.RemoteErrors)
	}
	if survivor.Executed() < 1 {
		t.Errorf("survivor executed %d cells, want >= 1", survivor.Executed())
	}
	cs := c.Status()
	if cs.Lost != 1 {
		t.Errorf("coordinator lost = %d, want 1", cs.Lost)
	}
}

// Cells are leased in the order they were queued, whichever worker polls:
// the engine's descending-cost release order is the dispatch order.
func TestQueueLeasesInOrder(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	names := []string{"a", "b"}
	ids := []string{registerRaw(t, hs.URL, names[0]), registerRaw(t, hs.URL, names[1])}

	const n = 5
	var outs []<-chan outcome
	for i := 0; i < n; i++ {
		outs = append(outs, executeRaw(c, fmt.Sprintf("k%d", i)))
		waitUntil(t, 5*time.Second, fmt.Sprintf("cell %d queued", i), func() bool { return c.Status().Queued == i+1 })
	}
	for i := 0; i < n; i++ {
		w := ids[i%2]
		task := pollRaw(t, hs.URL, w, 2000)
		if want := fmt.Sprintf("k%d", i); task.Key != want {
			t.Fatalf("lease %d (worker %s) got cell %s, want %s", i, w, task.Key, want)
		}
		finishRaw(t, hs.URL, w, task)
	}
	for i, ch := range outs {
		if out := <-ch; out.err != nil {
			t.Fatalf("Execute k%d: %v", i, out.err)
		} else if want := names[i%2]; out.res.Worker != want {
			t.Errorf("cell k%d served by %q, want %q", i, out.res.Worker, want)
		}
	}
	if st := c.Status(); st.Completed != n || st.Queued != 0 || st.Workers[0].Completed != 3 || st.Workers[1].Completed != 2 {
		t.Errorf("status after drain = %+v", st)
	}
}

// Every poll parked before an enqueue is woken by it: two task loops of one
// worker both get a cell promptly when two arrive back to back, well inside
// the 250ms nap a missed wake-up would cost.
func TestParkedPollsWakeOnEnqueue(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	a := registerRaw(t, hs.URL, "a")

	type lease struct {
		task Task
		at   time.Time
		err  error
	}
	leases := make(chan lease, 2)
	for i := 0; i < 2; i++ {
		go func() {
			var l lease
			code, err := tryPost(hs.URL+PathPoll, PollRequest{Schema: WireSchema, WorkerID: a, WaitMS: 5000}, &l.task)
			l.at = time.Now()
			if l.err = err; err == nil && code != http.StatusOK {
				l.err = fmt.Errorf("poll: status %d", code)
			}
			leases <- l
		}()
	}
	waitUntil(t, 5*time.Second, "a poll parked", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.wake != nil
	})
	// The second poll parks on the same channel, so its arrival is not
	// observable; give it a moment. (Arriving late only weakens the test:
	// it would find its cell already queued.)
	time.Sleep(50 * time.Millisecond)

	t0 := time.Now()
	outs := []<-chan outcome{executeRaw(c, "k0"), executeRaw(c, "k1")}
	for i := 0; i < 2; i++ {
		l := <-leases
		if l.err != nil {
			t.Fatal(l.err)
		}
		if d := l.at.Sub(t0); d > 100*time.Millisecond {
			t.Errorf("parked poll answered %v after the enqueue, want <= 100ms", d)
		}
		finishRaw(t, hs.URL, a, l.task)
	}
	for _, ch := range outs {
		if out := <-ch; out.err != nil {
			t.Fatalf("Execute: %v", out.err)
		}
	}
}

// A queued cell belongs to no worker, so when the last live worker goes —
// by leaving or by expiry — nobody is left to pull it: it fails transient,
// and through a runner the retry computes it locally, byte-identical.
func TestLastWorkerGoneFailsQueue(t *testing.T) {
	for _, how := range []string{"leave", "expiry"} {
		t.Run(how, func(t *testing.T) {
			c, hs := testHarness(t, 30*time.Second)
			silent := registerRaw(t, hs.URL, "silent")
			out := executeRaw(c, "k")
			waitUntil(t, 5*time.Second, "cell queued", func() bool { return c.Status().Queued == 1 })
			if how == "leave" {
				leaveRaw(t, hs.URL, silent)
			} else {
				c.mu.Lock()
				c.expireLocked(time.Now().Add(time.Hour))
				c.mu.Unlock()
			}
			if err := (<-out).err; !engine.IsTransient(err) {
				t.Fatalf("queued cell after the last worker's %s: err = %v, want transient", how, err)
			}
			if st := c.Status(); st.Queued != 0 || st.Failed != 1 {
				t.Errorf("status = %+v, want an empty queue and 1 failure", st)
			}
		})
	}

	c, hs := testHarness(t, 30*time.Second)
	silent := registerRaw(t, hs.URL, "silent")
	cfg := core.Config{MessageBytes: 4096, Partitions: 4, Iterations: 2, Warmup: -1}
	rn := engine.New(engine.WithExecutor(c))
	got := make(chan []byte, 1)
	go func() {
		res, err := core.RunCached(rn, cfg)
		if err != nil {
			t.Errorf("RunCached across the last worker's leave: %v", err)
		}
		b, _ := json.Marshal(res)
		got <- b
	}()
	waitUntil(t, 5*time.Second, "cell queued", func() bool { return c.Status().Queued == 1 })
	leaveRaw(t, hs.URL, silent)
	local, err := core.RunCached(engine.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)
	if b := <-got; !bytes.Equal(b, want) {
		t.Errorf("result after local fallback differs from a local run:\n%s\n%s", b, want)
	}
	if st := rn.Stats(); st.Retries < 1 || st.RemoteErrors < 1 || st.RemoteRuns != 0 {
		t.Errorf("stats = %d retries, %d remote errors, %d remote runs; want >=1, >=1, 0", st.Retries, st.RemoteErrors, st.RemoteRuns)
	}
}

// One worker message is read through a byte cap: a body past it is refused
// with 413 instead of being buffered whole.
func TestOversizedMessageRejected(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	c.maxBody = 1 << 10
	id := registerRaw(t, hs.URL, "a")
	big := Result{Schema: WireSchema, WorkerID: id, ID: 1, Key: "k", Value: json.RawMessage(`"` + strings.Repeat("x", 2<<10) + `"`)}
	if code := postJSON(t, hs.URL+PathResult, big, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized result: status %d, want 413", code)
	}
	if code := postJSON(t, hs.URL+PathHeartbeat, HeartbeatRequest{Schema: WireSchema, WorkerID: id}, nil); code != http.StatusNoContent {
		t.Errorf("heartbeat after the refusal: status %d, want 204", code)
	}
}

// With no registered workers, Execute reports ErrNoWorkers and an
// executor-equipped runner computes cells locally.
func TestNoWorkersFallsBackLocal(t *testing.T) {
	c, _ := testHarness(t, 30*time.Second)
	_, err := c.Execute(context.Background(), engine.RemoteTask{Key: "k", Kind: "test.raw", Config: json.RawMessage(`{}`)})
	if !errors.Is(err, engine.ErrNoWorkers) {
		t.Fatalf("Execute with no workers: err = %v, want ErrNoWorkers", err)
	}

	rn := engine.New(engine.WithExecutor(c))
	cfg := core.Config{MessageBytes: 4096, Partitions: 4, Iterations: 2, Warmup: -1}
	if _, err := core.RunCached(rn, cfg); err != nil {
		t.Fatalf("RunCached with empty fleet: %v", err)
	}
	st := rn.Stats()
	if st.RemoteRuns != 0 || st.Runs != 1 {
		t.Errorf("stats = %d remote runs, %d runs; want 0 and 1 (local fallback)", st.RemoteRuns, st.Runs)
	}
}

// Distributed results flow into the shared disk cache exactly like local
// ones: a later local runner on the same directory serves them as disk hits,
// byte-identical.
func TestDistributedResultsPopulateDiskCache(t *testing.T) {
	dir := t.TempDir()
	d1, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	startWorker(t, hs.URL, "worker-2", 0)

	base := core.Config{Partitions: 4, Iterations: 2, Warmup: -1}
	sizes := []int64{4096, 8192, 16384}
	rn := engine.New(engine.Workers(2), engine.WithExecutor(c), engine.WithDiskCache(d1))
	distRes, err := core.SweepMessageSizes(rn, base, sizes)
	if err != nil {
		t.Fatal(err)
	}
	st := rn.Stats()
	if st.RemoteRuns != int64(len(sizes)) || st.DiskWrites != int64(len(sizes)) {
		t.Fatalf("distributed run: %d remote runs, %d disk writes; want %d of each", st.RemoteRuns, st.DiskWrites, len(sizes))
	}

	d2, err := engine.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	rn2 := engine.New(engine.WithDiskCache(d2))
	localRes, err := core.SweepMessageSizes(rn2, base, sizes)
	if err != nil {
		t.Fatal(err)
	}
	st2 := rn2.Stats()
	if st2.DiskHits != int64(len(sizes)) || st2.Runs != 0 {
		t.Fatalf("local rerun: %d disk hits, %d runs; want %d hits and 0 runs", st2.DiskHits, st2.Runs, len(sizes))
	}
	if !reflect.DeepEqual(distRes, localRes) {
		t.Error("disk-cached distributed results differ from their reload")
	}
}

// A worker that does not know a task's kind fails it transiently, so the
// engine's bounded retries (and eventual local fallback) apply.
func TestUnknownKindIsTransient(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	_, err := c.Execute(context.Background(), engine.RemoteTask{
		Key: "k", Kind: "no.such.kind", Config: json.RawMessage(`{}`),
	})
	if !engine.IsTransient(err) {
		t.Fatalf("unknown kind: err = %v, want transient", err)
	}
}

// A cell that panics on a worker fails its own task with a permanent error;
// the worker survives and serves the next task.
func TestPanickingCellFailsTaskNotWorker(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	_, err := c.Execute(context.Background(), engine.RemoteTask{
		Key: "bad", Kind: "test.panic", Config: json.RawMessage(`{}`),
	})
	if err == nil || engine.IsTransient(err) || !strings.Contains(err.Error(), "cell panicked: boom") {
		t.Fatalf("panicking kind: err = %v, want a permanent 'cell panicked: boom'", err)
	}
	res, err := c.Execute(context.Background(), engine.RemoteTask{
		Key: "good", Kind: "test.ok", Config: json.RawMessage(`{}`),
	})
	if err != nil || string(res.Value) != "7" {
		t.Fatalf("task after the panic: value %s, err %v; want 7 from the same worker", res.Value, err)
	}
}

// Wire-schema mismatches are rejected at the door.
func TestSchemaMismatchRejected(t *testing.T) {
	_, hs := testHarness(t, 30*time.Second)
	if code := postJSON(t, hs.URL+PathRegister, RegisterRequest{Schema: WireSchema + 1, Name: "future"}, nil); code != http.StatusBadRequest {
		t.Errorf("future-schema register: status %d, want 400", code)
	}
	if code := postJSON(t, hs.URL+PathHeartbeat, HeartbeatRequest{Schema: WireSchema, WorkerID: "w999"}, nil); code != http.StatusGone {
		t.Errorf("unknown-worker heartbeat: status %d, want 410", code)
	}
}
