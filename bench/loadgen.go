package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sleepUntil returns at due, within a few microseconds when a CPU is free.
// time.Sleep is not used: an idle Go runtime parks in epoll_wait, whose
// timeout is whole milliseconds, so its sleeps overshoot by 0.6 ms at the
// median on the host this was written on — as much as a cached reply takes.
// nanosleep gets within 0.15 ms; the rest is spun away.
func sleepUntil(due time.Time) {
	const spin = 200 * time.Microsecond
	if wait := time.Until(due) - spin; wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) only lengthens the spin
	}
	for time.Now().Before(due) {
	}
}

// shot is the record of one request the load generator sent. The fields are
// exported because the load-generator process reports its shots as JSON.
type shot struct {
	Index int
	// Due is when the schedule said to send it (open loop) or when the
	// client picked it up (closed loop); Sent is when a connection actually
	// took it; Done is when the reply was complete.
	Due, Sent, Done time.Time
	// Late is how far behind its schedule the generator itself was when it
	// released the request — the harness's own error, not the server's.
	Late time.Duration
	OK   bool
}

// latency is what the user waited: from the moment the request was due.
func (s shot) latency() time.Duration { return s.Done.Sub(s.Due) }

// openLoop releases request i at i/rate seconds after the start, whatever the
// server is doing, and sends it on one of conns connections. A request that
// finds every connection busy waits in a queue the generator never blocks on,
// and that wait counts: latency runs from the due time, so a stall is charged
// to every request it delays, not only to the one that hit it.
func openLoop(rate float64, total, conns int, do func(i int) bool) []shot {
	shots := make([]shot, total)
	queue := make(chan int, total) // sized to every send: the generator never blocks
	start := time.Now()
	var senders sync.WaitGroup
	for c := 0; c < conns; c++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range queue {
				shots[i].Sent = time.Now()
				shots[i].OK = do(i)
				shots[i].Done = time.Now()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		shots[i].Index = i
		shots[i].Due = due
		shots[i].Late = time.Since(due)
		queue <- i
	}
	close(queue)
	senders.Wait()
	return shots
}

// closedLoop runs clients callers that each send their next request only when
// the previous reply is complete, until the duration is over or limit
// requests were sent (limit 0 = no limit).
func closedLoop(d time.Duration, clients, limit int, do func(i int) bool) []shot {
	var mu sync.Mutex
	var shots []shot
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if limit > 0 && i >= limit {
					return
				}
				s := shot{Index: i, Due: time.Now()}
				s.Sent = s.Due
				s.OK = do(i)
				s.Done = time.Now()
				mu.Lock()
				shots = append(shots, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return shots
}

// ratePerSlice counts completions in consecutive slices of a loop of length d
// and returns each full slice's rate in replies per second. The loop's start
// is its earliest due time.
func ratePerSlice(shots []shot, d, slice time.Duration) []float64 {
	n := int(d / slice)
	if n < 1 {
		return nil
	}
	if len(shots) == 0 {
		return make([]float64, n)
	}
	start := shots[0].Due
	for _, s := range shots {
		if s.Due.Before(start) {
			start = s.Due
		}
	}
	counts := make([]int, n)
	for _, s := range shots {
		if k := int(s.Done.Sub(start) / slice); k < n {
			counts[k]++
		}
	}
	rates := make([]float64, n)
	for k, c := range counts {
		rates[k] = float64(c) / slice.Seconds()
	}
	return rates
}

// The load generator runs as a process of its own — this same binary, started
// with loadgenEnv set — so that it has its own scheduler and threads, as a
// real client has. Inside the server's process its wake-ups would queue
// behind the simulation goroutines of a miss: measured, one request in ten
// was released more than 20 ms late.
const loadgenEnv = "BENCH_LOADGEN_PLAN"

// loadPlan tells the load-generator process what to send. Rate > 0 selects
// the open loop (Total requests), otherwise the closed loop (for Duration, at
// most Limit requests when Limit > 0). Request indices start at First.
type loadPlan struct {
	URL      string
	Mix      *mix
	Conns    int
	Rate     float64
	Total    int
	First    int
	Duration time.Duration
	Limit    int
}

// loadReport is what the load-generator process prints.
type loadReport struct {
	Shots    []shot
	Failures []string
}

// client posts sweep specs over a fixed number of connections.
type client struct {
	url  string
	http *http.Client
}

func newClient(url string, conns int) *client {
	return &client{url, &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}}
}

// post sends one request and checks the reply: 200, and either the expected
// bytes (a hit) or, with want nil, a reply that says cells were simulated.
func (c *client) post(id int, body, want []byte) (bool, string) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return false, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Bench-Req", strconv.Itoa(id))
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err.Error()
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return false, err.Error()
	case resp.StatusCode != http.StatusOK:
		return false, fmt.Sprintf("status %d: %.80s", resp.StatusCode, got)
	case want != nil && !bytes.Equal(got, want):
		return false, "reply differs from the batch rendering of the same spec"
	case want == nil:
		if runs, _ := strconv.Atoi(resp.Header.Get("X-Sweepd-Runs")); runs <= 0 {
			return false, "a never-seen spec was answered without simulating"
		}
	}
	return true, ""
}

// generate executes a plan in this process and returns what it sent.
func generate(p loadPlan) loadReport {
	c := newClient(p.URL, p.Conns)
	defer c.http.CloseIdleConnections()
	var mu sync.Mutex
	var rep loadReport
	do := func(i int) bool {
		i += p.First
		var want []byte
		if !p.Mix.isMiss(i) {
			want = p.Mix.Want[p.Mix.hotIndex(i)]
		}
		ok, why := c.post(i, p.Mix.body(i), want)
		if !ok {
			mu.Lock()
			rep.Failures = append(rep.Failures, fmt.Sprintf("request %d: %s", i, why))
			mu.Unlock()
		}
		return ok
	}
	if p.Rate > 0 {
		rep.Shots = openLoop(p.Rate, p.Total, p.Conns, do)
	} else {
		rep.Shots = closedLoop(p.Duration, p.Conns, p.Limit, do)
	}
	for i := range rep.Shots {
		rep.Shots[i].Index += p.First
	}
	return rep
}

// loadgenMain is the load-generator process: read the plan, run it, print the
// report.
func loadgenMain(planPath string) int {
	b, err := os.ReadFile(planPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen:", err)
		return 2
	}
	var p loadPlan
	if err := json.Unmarshal(b, &p); err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen:", err)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(generate(p)); err != nil {
		fmt.Fprintln(os.Stderr, "bench loadgen:", err)
		return 2
	}
	return 0
}

// runLoad starts the load-generator process on a plan, waits for it to end,
// and returns its shots and the requests that failed.
func runLoad(rc *runCtx, p loadPlan) ([]shot, []string, error) {
	dir, err := rc.tempDir("loadgen-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	b, err := json.Marshal(p)
	if err != nil {
		return nil, nil, err
	}
	planPath := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(planPath, b, 0o644); err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+planPath)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output() // Output waits for the process to end
	if err != nil {
		return nil, nil, fmt.Errorf("load generator: %w", err)
	}
	var rep loadReport
	if err := json.Unmarshal(outBytes, &rep); err != nil {
		return nil, nil, fmt.Errorf("load generator's report: %w", err)
	}
	return rep.Shots, rep.Failures, nil
}
