package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
)

// A result the coordinator no longer waits for — a second copy of one it
// already settled, or one from a worker whose lease was reaped and handed to
// a survivor — is acknowledged and dropped: the engine sees exactly one
// outcome per cell and the coordinator counts the cell once.
func TestStaleAndDuplicateResultsDropped(t *testing.T) {
	cfg := core.Config{MessageBytes: 4096, Partitions: 4, Iterations: 2, Warmup: -1}
	local, err := core.RunCached(engine.New(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(local)

	for _, tc := range []struct {
		name string
		// serve plays the workers that lease the cell at url and post its
		// results, starting with the registered worker first; it returns the
		// index of the worker to credit the cell.
		serve func(t *testing.T, c *Coordinator, url, first string) int
	}{
		{"duplicate", func(t *testing.T, c *Coordinator, url, a string) int {
			task := pollRaw(t, url, a, 5000)
			postResult(t, url, a, task, want)
			postResult(t, url, a, task, want)
			return 0
		}},
		{"reaped", func(t *testing.T, c *Coordinator, url, lame string) int {
			stale := pollRaw(t, url, lame, 5000)
			// The lame worker falls silent past the heartbeat window; the
			// survivor's next poll reaps it, and the retry of its lost lease
			// is the survivor's to take.
			c.mu.Lock()
			c.workers[lame].lastSeen = c.now().Add(-2 * c.timeout)
			c.mu.Unlock()
			survivor := registerRaw(t, url, "survivor")
			task := pollRaw(t, url, survivor, 5000)
			if task.Key != stale.Key || task.ID == stale.ID {
				t.Fatalf("survivor leased %+v, want a new lease of cell %s", task, stale.Key)
			}
			postResult(t, url, lame, stale, want)
			postResult(t, url, lame, task, want) // not its lease
			postResult(t, url, survivor, task, want)
			postResult(t, url, lame, stale, want)
			return 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, hs := testHarness(t, 30*time.Second)
			first := registerRaw(t, hs.URL, "first")
			seen := &keyLog{}
			rn := engine.New(engine.WithExecutor(c), engine.WithObserver(seen))
			got := make(chan []byte, 1)
			go func() {
				res, err := core.RunCached(rn, cfg)
				if err != nil {
					t.Errorf("RunCached: %v", err)
				}
				b, _ := json.Marshal(res)
				got <- b
			}()
			credited := tc.serve(t, c, hs.URL, first)
			if b := <-got; !bytes.Equal(b, want) {
				t.Errorf("remote result differs from a local run:\n%s\n%s", b, want)
			}
			if len(seen.keys) != 1 {
				t.Errorf("engine resolved %d cells, want the one cell once", len(seen.keys))
			}
			if st := rn.Stats(); st.RemoteRuns != 1 {
				t.Errorf("engine counted %d remote runs, want 1", st.RemoteRuns)
			}
			st := c.Status()
			if st.Completed != 1 || st.Workers[credited].Completed != 1 {
				t.Errorf("status = %+v, want the cell completed once, by worker %d", st, credited)
			}
			for _, w := range st.Workers {
				if w.Leased != 0 {
					t.Errorf("worker %s still holds %d leases", w.Name, w.Leased)
				}
			}
		})
	}
}

// postResult posts a successful result for task as the given worker and
// requires the coordinator's 204, which it answers stale results too.
func postResult(t *testing.T, url, workerID string, task Task, value []byte) {
	t.Helper()
	code := postJSON(t, url+PathResult, Result{
		Schema: WireSchema, WorkerID: workerID, ID: task.ID, Key: task.Key,
		Value: value, HostNS: 1000,
	}, nil)
	if code != http.StatusNoContent {
		t.Fatalf("result from %s for task %d: status %d, want 204", workerID, task.ID, code)
	}
}

// wirePaths are the POST endpoints FuzzCoordinatorMessages addresses, and
// wireMessage makes the message each one decodes.
var wirePaths = []string{PathRegister, PathHeartbeat, PathPoll, PathResult, PathLeave}

func wireMessage(path string) (msg any, schema *int) {
	switch path {
	case PathRegister:
		m := new(RegisterRequest)
		return m, &m.Schema
	case PathHeartbeat:
		m := new(HeartbeatRequest)
		return m, &m.Schema
	case PathPoll:
		m := new(PollRequest)
		return m, &m.Schema
	case PathResult:
		m := new(Result)
		return m, &m.Schema
	default:
		m := new(LeaveRequest)
		return m, &m.Schema
	}
}

// FuzzCoordinatorMessages posts an arbitrary body to one worker endpoint of
// a coordinator holding one registered worker and one dispatched cell,
// leased to that worker when op says so. The coordinator must not panic,
// must answer a body that does not decode or carries the wrong wire schema
// with 400, must answer anything else without a server error, and must
// leave its counters consistent.
func FuzzCoordinatorMessages(f *testing.F) {
	// testdata/fuzz holds one valid message per endpoint; these are not.
	f.Add(uint8(3), []byte(`{"schema":2,"worker_id":"w1","id":1,"key":"k"}`))
	f.Add(uint8(4), []byte(`not json`))
	f.Fuzz(func(t *testing.T, op uint8, body []byte) {
		c := NewCoordinator(CoordinatorConfig{HeartbeatTimeout: -1})
		c.Close() // a parked poll answers at once
		serve := func(path string, body []byte) int {
			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec.Code
		}
		if code := serve(PathRegister, []byte(`{"schema":1,"name":"seed"}`)); code != http.StatusOK {
			t.Fatalf("seed register: status %d", code)
		}
		ctx, cancel := context.WithCancel(context.Background())
		executed := make(chan struct{})
		go func() {
			defer close(executed)
			c.Execute(ctx, engine.RemoteTask{Key: "k", Kind: "test.ok", Config: json.RawMessage(`{}`)})
		}()
		for c.Status().Queued == 0 {
			time.Sleep(time.Millisecond)
		}
		if op/5%2 == 1 {
			if code := serve(PathPoll, []byte(`{"schema":1,"worker_id":"w1"}`)); code != http.StatusOK {
				t.Fatalf("seed poll: status %d", code)
			}
		}

		path := wirePaths[int(op)%len(wirePaths)]
		code := serve(path, body)
		msg, schema := wireMessage(path)
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(msg); err != nil || *schema != WireSchema {
			if code != http.StatusBadRequest {
				t.Fatalf("%s with body %q: status %d, want 400", path, body, code)
			}
		} else if code >= 500 {
			t.Fatalf("%s with body %q: status %d", path, body, code)
		}

		st := c.Status()
		leased, done := 0, int64(0)
		for _, w := range st.Workers {
			if !w.Live && w.Leased != 0 {
				t.Fatalf("departed worker %s holds %d leases", w.ID, w.Leased)
			}
			leased += w.Leased
			done += w.Completed
		}
		if st.Dispatched != 1 || int64(st.Queued+leased)+st.Completed+st.Failed != 1 {
			t.Fatalf("the one cell is not in exactly one place: %+v", st)
		}
		if done != st.Completed || st.Lost != 0 {
			t.Fatalf("inconsistent counters: %+v", st)
		}
		c.mu.Lock()
		if len(c.leases) != leased {
			t.Fatalf("%d leases held, workers report %d", len(c.leases), leased)
		}
		c.mu.Unlock()
		cancel()
		<-executed
	})
}
