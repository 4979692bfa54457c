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

// postJSON posts msg to url, decoding a 200 response into out (when
// non-nil), and returns the HTTP status.
func postJSON(t *testing.T, url string, msg, out any) int {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
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
	if task.Kind != CoreRunKind {
		t.Fatalf("leased task kind %q, want %q", task.Kind, CoreRunKind)
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

// An idle worker steals the tail of the most-loaded queue.
func TestIdleWorkerStealsQueuedTail(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	a := registerRaw(t, hs.URL, "a")

	const n = 3
	type outcome struct {
		res engine.RemoteResult
		err error
	}
	ch := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := c.Execute(context.Background(), engine.RemoteTask{
				Key:    fmt.Sprintf("k%d", i),
				Kind:   "test.raw",
				Config: json.RawMessage(`{}`),
			})
			ch <- outcome{res, err}
		}(i)
	}
	waitUntil(t, 5*time.Second, "3 tasks queued on a", func() bool {
		st := c.Status()
		return len(st.Workers) > 0 && st.Workers[0].Queued == n
	})

	b := registerRaw(t, hs.URL, "b")
	stolen := pollRaw(t, hs.URL, b, 2000)
	if st := c.Status(); st.Stolen != 1 {
		t.Fatalf("stolen = %d, want 1", st.Stolen)
	}

	// Drain: a takes its remaining two, everyone posts results whose value
	// echoes the cell key so each Execute call can be matched to the worker
	// that served it.
	finish := func(workerID string, task Task) {
		code := postJSON(t, hs.URL+PathResult, Result{
			Schema:   WireSchema,
			WorkerID: workerID,
			ID:       task.ID,
			Key:      task.Key,
			Value:    json.RawMessage(fmt.Sprintf("{%q:true}", task.Key)),
			HostNS:   1000,
		}, nil)
		if code != http.StatusNoContent {
			t.Fatalf("result post: status %d", code)
		}
	}
	finish(b, stolen)
	finish(a, pollRaw(t, hs.URL, a, 2000))
	finish(a, pollRaw(t, hs.URL, a, 2000))

	workers := map[string]string{}
	for i := 0; i < n; i++ {
		out := <-ch
		if out.err != nil {
			t.Fatalf("Execute: %v", out.err)
		}
		var payload map[string]bool
		if err := json.Unmarshal(out.res.Value, &payload); err != nil {
			t.Fatal(err)
		}
		for key := range payload {
			workers[key] = out.res.Worker
		}
	}
	if got := workers[stolen.Key]; got != "b" {
		t.Errorf("stolen cell %s served by %q, want b (got map %v)", stolen.Key, got, workers)
	}
	if st := c.Status(); st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
}

// A graceful leave requeues still-queued cells to survivors immediately.
func TestLeaveRequeuesQueuedCells(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	a := registerRaw(t, hs.URL, "a")

	done := make(chan error, 1)
	go func() {
		_, err := c.Execute(context.Background(), engine.RemoteTask{
			Key: "k", Kind: "test.raw", Config: json.RawMessage(`{}`),
		})
		done <- err
	}()
	waitUntil(t, 5*time.Second, "task queued on a", func() bool {
		st := c.Status()
		return len(st.Workers) > 0 && st.Workers[0].Queued == 1
	})

	b := registerRaw(t, hs.URL, "b")
	if code := postJSON(t, hs.URL+PathLeave, LeaveRequest{Schema: WireSchema, WorkerID: a}, nil); code != http.StatusNoContent {
		t.Fatalf("leave: status %d", code)
	}
	task := pollRaw(t, hs.URL, b, 2000)
	postJSON(t, hs.URL+PathResult, Result{
		Schema: WireSchema, WorkerID: b, ID: task.ID, Key: task.Key,
		Value: json.RawMessage(`{"ok":true}`), HostNS: 1,
	}, nil)
	if err := <-done; err != nil {
		t.Fatalf("Execute after leave: %v", err)
	}
	if st := c.Status(); st.Requeued != 1 {
		t.Errorf("requeued = %d, want 1", st.Requeued)
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
	RegisterKind("test.panic", func(json.RawMessage) (any, error) { panic("boom") })
	RegisterKind("test.ok", func(json.RawMessage) (any, error) { return 7, nil })
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
