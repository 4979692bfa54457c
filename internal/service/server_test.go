package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/sim"
)

// cheapSpec is a fast, fully-cacheable spec used across the server tests.
var cheapSpec = `{"size":"16KiB","parts":4,"compute":"1ms"}`

// newTestServer builds a Server in the sweepd configuration: single-flight
// runner, fan-out observer, persistent disk cache.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *engine.Runner) {
	t.Helper()
	disk, err := engine.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fan := engine.NewFanOut()
	rn := engine.New(engine.WithSingleFlight(), engine.WithDiskCache(disk), engine.WithObserver(fan))
	cfg := Config{Runner: rn, Fan: fan, Disk: disk}
	if mutate != nil {
		mutate(&cfg)
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, rn
}

func postSpec(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestSingleFlightAcrossClients: N concurrent clients posting the same
// cold spec cause exactly one engine run — the cross-client single-flight
// contract — and every client gets byte-identical output.
func TestSingleFlightAcrossClients(t *testing.T) {
	const n = 6
	_, ts, rn := newTestServer(t, nil)

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweep?format=csv", "application/json", strings.NewReader(cheapSpec))
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			mu.Lock()
			bodies = append(bodies, body)
			mu.Unlock()
		}()
	}
	wg.Wait()

	if len(bodies) != n {
		t.Fatalf("%d successful responses, want %d", len(bodies), n)
	}
	for _, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("responses differ:\n%s\nvs\n%s", bodies[0], b)
		}
	}
	// One cell, requested n times: exactly one run; every other resolution
	// was a memo wait or a disk hit. This is where "eviction never removes
	// a cell currently being served" matters: the engine pins the key for
	// the whole resolution.
	if st := rn.Stats(); st.Runs != 1 {
		t.Fatalf("engine stats = %+v, want exactly 1 run for %d clients", st, n)
	}
}

// TestHTTPMatchesBatch: the served bytes equal rendering the same spec
// through the shared table builder directly — the in-process version of
// the CI job's curl-vs-partbench diff.
func TestHTTPMatchesBatch(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	spec := `{"sweep":true,"min":"4KiB","max":"16KiB","parts":4,"compute":"1ms"}`
	resp, got := postSpec(t, ts.URL+"/v1/sweep?format=csv", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}

	var s Spec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		t.Fatal(err)
	}
	rq, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	results, err := rq.Run(engine.New())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rq.Table(results).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("HTTP table differs from batch table:\n%s\nvs\n%s", got, want.Bytes())
	}
}

// TestTallyHeaders: a cold request reports runs, a warm repeat reports
// disk hits and zero runs — the signal sweepload's cache-hit ratio is
// built from.
func TestTallyHeaders(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cold, _ := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if got := cold.Header.Get("X-Sweepd-Runs"); got != "1" {
		t.Fatalf("cold X-Sweepd-Runs = %q, want 1", got)
	}
	warm, _ := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if runs, hits := warm.Header.Get("X-Sweepd-Runs"), warm.Header.Get("X-Sweepd-Disk-Hits"); runs != "0" || hits != "1" {
		t.Fatalf("warm headers: runs %q, disk hits %q, want 0 and 1", runs, hits)
	}
}

// TestBackpressure: with one run slot and a queue depth of one, the third
// concurrent request is rejected with 429 and a Retry-After hint — never
// silently queued.
func TestBackpressure(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	srv, ts, _ := newTestServer(t, func(c *Config) {
		c.MaxActive = 1
		c.QueueDepth = 1
		c.RetryAfter = 2 * time.Second
	})
	srv.runSweep = func(Request) ([]*core.Result, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	}

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("in-flight request: status %d: %s", resp.StatusCode, body)
			}
			codes <- resp.StatusCode
		}()
	}
	<-entered // first request is running
	// Wait for the second to claim the queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never claimed the queue slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}

	close(release)
	wg.Wait()
	if srv.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", srv.rejected.Load())
	}
}

// TestDrainFinishesInFlight: Drain lets running sweeps complete, rejects
// new work with 503, and flips /healthz — the SIGTERM contract.
func TestDrainFinishesInFlight(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, ts, _ := newTestServer(t, nil)
	srv.runSweep = func(Request) ([]*core.Result, error) {
		entered <- struct{}{}
		<-release
		return nil, nil
	}

	inFlight := make(chan int, 1)
	go func() {
		resp, _ := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
		inFlight <- resp.StatusCode
	}()
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	// Drain must be visible (healthz 503) before the in-flight sweep ends.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(time.Millisecond)
	}

	resp, _ := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new request during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while a sweep was still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestStreamSSE: ?stream=1 delivers per-cell progress events and a final
// result event carrying the same table a plain request would return.
func TestStreamSSE(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, body := postSpec(t, ts.URL+"/v1/sweep?stream=1", cheapSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	text := string(body)
	if !strings.Contains(text, "event: cell\n") {
		t.Fatalf("no cell event in stream:\n%s", text)
	}
	i := strings.Index(text, "event: result\ndata: ")
	if i < 0 {
		t.Fatalf("no result event in stream:\n%s", text)
	}
	payload := text[i+len("event: result\ndata: "):]
	payload = payload[:strings.Index(payload, "\n")]
	var res sweepJSON
	if err := json.Unmarshal([]byte(payload), &res); err != nil {
		t.Fatalf("result event is not JSON: %v\n%s", err, payload)
	}
	if res.Table == nil || len(res.Table.Rows) != 1 {
		t.Fatalf("result table = %+v", res.Table)
	}
	if res.Tallies == nil || res.Tallies.Cells != 1 {
		t.Fatalf("result tallies = %+v", res.Tallies)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"GET", func() (*http.Response, error) { return http.Get(ts.URL + "/v1/sweep") }, http.StatusMethodNotAllowed},
		{"unknown field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"sise":"1MiB"}`))
		}, http.StatusBadRequest},
		{"bad body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{`))
		}, http.StatusBadRequest},
		{"bad format", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweep?format=yaml", "application/json", strings.NewReader(cheapSpec))
		}, http.StatusBadRequest},
		{"budget spec", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"samples":"budget=1s"}`))
		}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

// TestMetricsEndpoint: /metrics reflects request counters, latency
// samples, engine stats, and disk-cache accounting.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	postSpec(t, ts.URL+"/v1/sweep", cheapSpec)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests.Total != 2 || m.Requests.OK != 2 {
		t.Fatalf("requests = %+v", m.Requests)
	}
	if m.Latency.Count != 2 || m.Latency.P99ms <= 0 {
		t.Fatalf("latency = %+v", m.Latency)
	}
	if m.Engine.Runs != 1 {
		t.Fatalf("engine = %+v, want 1 run", m.Engine)
	}
	if m.Cache == nil || m.Cache.Entries != 1 {
		t.Fatalf("cache = %+v, want 1 entry", m.Cache)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestEvictionNeverRemovesServedCell: with a budget of zero usable bytes
// (everything over budget), a cell stays on disk for the whole time the
// engine is resolving it — the pin the engine holds during resolution —
// and is evicted only afterwards.
func TestEvictionNeverRemovesServedCell(t *testing.T) {
	disk, err := engine.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk.SetBudget(1) // nothing fits: every unpinned entry is evictable
	rn := engine.New(engine.WithSingleFlight(), engine.WithDiskCache(disk))
	srv := New(Config{Runner: rn, Disk: disk})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, body := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	// The store completed while pinned (no mid-flight deletion), then the
	// unpin evicted it: the cache honours its budget afterwards.
	acc := disk.Accounting()
	if acc.Entries != 0 || acc.Evictions != 1 {
		t.Fatalf("accounting = %+v, want the stored cell evicted after unpin", acc)
	}
}

// TestQueueWaitRespectsClientDisconnect: a queued request whose client
// goes away gives its slot back instead of running an orphaned sweep.
func TestQueueWaitRespectsClientDisconnect(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, ts, _ := newTestServer(t, func(c *Config) {
		c.MaxActive = 1
		c.QueueDepth = 1
	})
	var runs atomic32
	srv.runSweep = func(Request) ([]*core.Result, error) {
		runs.add(1)
		entered <- struct{}{}
		<-release
		return nil, nil
	}

	first := make(chan struct{})
	go func() {
		defer close(first)
		postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	}()
	<-entered

	// Second request queues, then its client gives up.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/sweep", strings.NewReader(cheapSpec))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request reported success")
	}

	deadline = time.Now().Add(5 * time.Second)
	for len(srv.slots) > 1 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned request never released its slot")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-first
	if got := runs.load(); got != 1 {
		t.Fatalf("runSweep ran %d times, want 1 (abandoned request must not run)", got)
	}
}

// atomic32 is a tiny counter safe across the test's goroutines.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestPanickingCellIs5xxAndServerLives: a spec whose simulation panics — here
// a proc of a cell run through the server's own engine runner — costs that
// request a 500 and nothing else: the panic is not memoized, and the same
// server answers the next request.
func TestPanickingCellIs5xxAndServerLives(t *testing.T) {
	srv, ts, rn := newTestServer(t, nil)
	real := srv.runSweep
	srv.runSweep = func(rq Request) ([]*core.Result, error) {
		if rq.Base.Partitions != 13 {
			return real(rq)
		}
		_, err := rn.Do("bad-spec", func() (any, error) {
			s := sim.New()
			s.Spawn("rank0", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				panic("model invariant tripped")
			})
			return nil, s.Run()
		})
		return nil, err
	}
	bad := `{"size":"13KiB","parts":13,"compute":"1ms"}`
	for i := 0; i < 2; i++ { // twice: the outcome must not be cached
		resp, body := postSpec(t, ts.URL+"/v1/sweep", bad)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "cell panicked: model invariant tripped") {
			t.Fatalf("bad spec, try %d: status %d, body %q; want 500 naming the panic", i, resp.StatusCode, body)
		}
	}
	if st := rn.Stats(); st.Runs != 2 {
		t.Fatalf("engine ran the panicking cell %d times over two requests, want 2 (never memoized)", st.Runs)
	}
	resp, body := postSpec(t, ts.URL+"/v1/sweep", cheapSpec)
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("request after the panic: status %d, %d body bytes; want 200", resp.StatusCode, len(body))
	}
}

// TestPanickingCellLeaksNoGoroutines: when a cell's simulation panics, the
// procs it leaves parked — a sleeper and one blocked for good here — are
// unwound with the drive, so a client repeating a bad spec costs the daemon
// no goroutines.
func TestPanickingCellLeaksNoGoroutines(t *testing.T) {
	srv, _, rn := newTestServer(t, nil)
	srv.runSweep = func(Request) ([]*core.Result, error) {
		_, err := rn.Do("bad-spec", func() (any, error) {
			s := sim.New()
			var never sim.Completion
			s.Spawn("rank0", func(p *sim.Proc) {
				p.Sleep(sim.Microsecond)
				panic("model invariant tripped")
			})
			s.Spawn("rank1", func(p *sim.Proc) { p.Sleep(sim.Second) })
			s.Spawn("rank2", func(p *sim.Proc) { never.Wait(p) })
			return nil, s.Run()
		})
		return nil, err
	}
	post := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(cheapSpec)))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body)
		}
	}
	post() // whatever the first request starts for good is not a leak
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		post()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 200 panicking requests, %d before", after, before)
	}
}

// TestConcurrentSweepsOfDifferentLength: two clients posting sweeps of
// different lengths through one Server — one runner behind both — each get a
// 200 byte-identical to their spec's serial reply, every time. A sweep's
// cost function travels with its own engine call; when it sat in a slot on
// the shared runner, one request could run with the other's and index out of
// range.
func TestConcurrentSweepsOfDifferentLength(t *testing.T) {
	srv, _, _ := newTestServer(t, nil)
	post := func(spec string) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep?format=csv", strings.NewReader(spec)))
		return rec.Code, rec.Body.Bytes()
	}
	specs := []string{
		`{"sweep":true,"min":"1KiB","max":"1KiB","parts":1,"compute":"1ms","iters":1}`,
		`{"sweep":true,"min":"1KiB","max":"2KiB","parts":1,"compute":"1ms","iters":1}`,
	}
	var serial [2][]byte
	for i, spec := range specs {
		code, body := post(spec)
		if code != http.StatusOK {
			t.Fatalf("serial %s: status %d: %s", spec, code, body)
		}
		serial[i] = body
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < 5000; it++ {
				i := (c + it) % 2
				code, body := post(specs[i])
				if code != http.StatusOK || !bytes.Equal(body, serial[i]) {
					t.Errorf("client %d, request %d: status %d, body %q; want 200 and the serial reply %q",
						c, it, code, body, serial[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
