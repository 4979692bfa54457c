package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"partmb/internal/engine"
	"partmb/internal/service"
)

// Load shape of sweepd-mix. The dev host has two cores, so the load comes
// from one process over two connections.
const (
	sweepdRate    = 300.0 // open-loop requests per second
	sweepdConns   = 2     // connections (open loop) and clients (closed loop)
	sweepdHotPool = 8     // cached specs
	sweepdOpenFr  = 0.65  // share of the run spent in the open loop
	// minBeyond is how many samples must lie beyond a reported percentile.
	minBeyond = 10
)

// sweepSpec is the request body: a 14-size sweep that differs only in seed.
func sweepSpec(seed int64) []byte {
	return []byte(fmt.Sprintf(`{"sweep":true,"min":"1KiB","max":"8MiB","parts":8,"compute":"10ms","noise":"uniform","iters":3,"seed":%d}`, seed))
}

// cliRender is the batch path for a spec: resolve, run on a local runner,
// render as text. A cached reply must equal it byte for byte.
func cliRender(body []byte, rn *engine.Runner) ([]byte, service.Request, error) {
	var spec service.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, service.Request{}, err
	}
	rq, err := spec.Resolve()
	if err != nil {
		return nil, rq, err
	}
	results, err := rq.Run(rn)
	if err != nil {
		return nil, rq, err
	}
	var buf bytes.Buffer
	if err := rq.Table(results).WriteText(&buf); err != nil {
		return nil, rq, err
	}
	return buf.Bytes(), rq, nil
}

// mix decides, from the run's seed, what request i is: in every block of ten
// exactly one request, at a drawn position, carries a never-seen seed (a
// miss); the others draw one of the hot specs.
type mix struct {
	Seed int64
	Hot  [][]byte // hot request bodies
	Want [][]byte // their expected replies
}

func (m *mix) hash(i int) uint64 {
	x := uint64(m.Seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 1
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x
}

func (m *mix) isMiss(i int) bool { return i%10 == int(m.hash(-1-i/10)%10) }

func (m *mix) hotIndex(i int) int { return int(m.hash(i) % uint64(len(m.Hot))) }

func (m *mix) body(i int) []byte {
	if m.isMiss(i) {
		return sweepSpec((m.Seed+1)*1_000_000 + 1000 + int64(i))
	}
	return m.Hot[m.hotIndex(i)]
}

func newMix(seed int64) (*mix, [][]string, error) {
	m := &mix{Seed: seed}
	oracle := engine.New(engine.Workers(2))
	var keys [][]string
	for k := 0; k < sweepdHotPool; k++ {
		body := sweepSpec((seed+1)*1_000_000 + int64(k) + 1)
		want, rq, err := cliRender(body, oracle)
		if err != nil {
			return nil, nil, err
		}
		m.Hot = append(m.Hot, body)
		m.Want = append(m.Want, want)
		keys = append(keys, rq.CellKeys())
	}
	return m, keys, nil
}

// handlerSpan is one service.handler interval recorded by the middleware.
type handlerSpan struct {
	req        int
	start, end time.Time
}

// rig is one running sweepd: the service behind a loopback listener, wired as
// cmd/sweepd wires it.
type rig struct {
	dir    string
	srv    *service.Server
	fan    *engine.FanOut
	epoch  time.Time // the runner's creation time
	hs     *http.Server
	served chan struct{}
	url    string

	tracing  atomic.Bool
	mu       sync.Mutex
	handlers []handlerSpan
}

// ServeHTTP is the benchmark's middleware around the service: on a traced
// segment it records the handler's interval under the request's id.
func (r *rig) ServeHTTP(w http.ResponseWriter, q *http.Request) {
	if !r.tracing.Load() {
		r.srv.ServeHTTP(w, q)
		return
	}
	id, _ := strconv.Atoi(q.Header.Get("X-Bench-Req"))
	t0 := time.Now()
	r.srv.ServeHTTP(w, q)
	t1 := time.Now()
	r.mu.Lock()
	r.handlers = append(r.handlers, handlerSpan{id, t0, t1})
	r.mu.Unlock()
}

func startRig(rc *runCtx, m *mix) (*rig, error) {
	dir, err := rc.tempDir("sweepd-")
	if err != nil {
		return nil, err
	}
	dc, err := engine.OpenDiskCache(dir)
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, fan: engine.NewFanOut(), served: make(chan struct{})}
	r.epoch = time.Now()
	rn := engine.New(engine.Workers(2), engine.WithDiskCache(dc), engine.WithSingleFlight(), engine.WithObserver(r.fan))
	rn.SetExperiment("sweepd")
	r.srv = service.New(service.Config{Runner: rn, Fan: r.fan, Disk: dc, MaxActive: 4, QueueDepth: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	r.url = "http://" + ln.Addr().String() + "/v1/sweep"
	r.hs = &http.Server{Handler: r}
	go func() {
		defer close(r.served)
		r.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	// Fill the cache with the hot pool, then read each spec back twice so
	// the page cache is warm.
	c := newClient(r.url, 1)
	defer c.http.CloseIdleConnections()
	for round := 0; round < 3; round++ {
		for k := range m.Hot {
			if ok, why := c.post(-1, m.Hot[k], m.Want[k]); !ok {
				r.stop()
				return nil, fmt.Errorf("warming hot spec %d: %s", k, why)
			}
		}
	}
	return r, nil
}

func (r *rig) stop() {
	r.hs.Close()
	<-r.served
	os.RemoveAll(r.dir)
}

// latencies splits the shots' latencies, in ms, into hits and misses. Failed
// requests have no latency; they are counted as failures instead.
func latencies(m *mix, shots []shot) (hits, misses []float64) {
	for _, s := range shots {
		if !s.OK {
			continue
		}
		if m.isMiss(s.Index) {
			misses = append(misses, ms(s.latency()))
		} else {
			hits = append(hits, ms(s.latency()))
		}
	}
	return hits, misses
}

func runSweepdMix(rc *runCtx) (*outcome, error) {
	out := newOutcome()
	m, hotKeys, err := newMix(rc.seed)
	if err != nil {
		return nil, err
	}
	out.digests["hot-replies"] = digestOf(bytes.Join(m.Want, nil))

	var r *rig
	stop, err := setUp(rc, out, func() (func(), error) {
		var err error
		if r, err = startRig(rc, m); err != nil {
			return nil, err
		}
		return r.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer stop()

	openFor := time.Duration(float64(rc.budget()) * sweepdOpenFr)
	closedFor := rc.budget() - openFor
	total := int(openFor.Seconds() * sweepdRate)
	closedLimit := 0
	if rc.smoke {
		total, closedFor, closedLimit = 40, 2*time.Second, 10
	}
	// load runs one loop in the load-generator process and folds its failed
	// requests into the outcome.
	load := func(p loadPlan) ([]shot, error) {
		p.URL, p.Mix, p.Conns = r.url, m, sweepdConns
		shots, failures, err := runLoad(rc, p)
		for _, f := range failures {
			out.fail("%s", f)
		}
		out.attempted += len(shots)
		return shots, err
	}

	// Open loop. The traced run sends the first half untraced and the second
	// half traced, and reads the tracing overhead off the two medians.
	runtime.GC()
	var shots, tracedShots []shot
	if rc.traced() {
		first := total / 2
		if shots, err = load(loadPlan{Rate: sweepdRate, Total: first}); err != nil {
			return nil, err
		}
		sink := &cellSink{runnerEpoch: r.epoch}
		id := r.fan.Add(sink)
		r.tracing.Store(true)
		tracedShots, err = load(loadPlan{Rate: sweepdRate, Total: total - first, First: first})
		r.tracing.Store(false)
		r.fan.Remove(id)
		if err != nil {
			return nil, err
		}
		r.accountTrace(rc.tr, out, m, hotKeys, tracedShots, sink.drain())
	} else if shots, err = load(loadPlan{Rate: sweepdRate, Total: total}); err != nil {
		return nil, err
	}
	hits, misses := latencies(m, shots)
	report := func(name string, xs []float64, p float64) {
		v, used, beyond := tailPercentile(xs, p, minBeyond)
		out.values[name] = v
		if used != p {
			out.notef("%s: only %d samples, reporting p%g (%d beyond)", name, len(xs), used, beyond)
		}
	}
	out.values["hit_p50_ms"] = median(hits)
	out.values["miss_p50_ms"] = median(misses)
	report("hit_p99_ms", hits, 99)
	report("miss_p90_ms", misses, 90)
	var late []float64
	for _, s := range append(shots, tracedShots...) {
		late = append(late, ms(s.Late))
	}
	report("bench.late_p99_ms", late, 99)
	if thits, _ := latencies(m, tracedShots); len(thits) > 0 && len(hits) > 0 {
		out.values["bench.trace_overhead_frac"] = median(thits)/median(hits) - 1
	}
	out.notef("open loop: %d requests at %g/s over %d connections (%d hits, %d misses untraced)", len(shots)+len(tracedShots), sweepdRate, sweepdConns, len(hits), len(misses))

	// Closed loop: two clients, same mix, for the saturation rate. Requests
	// continue the open loop's index sequence, so every miss is still new.
	// The clients are another process, so the allocation is the server's.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	closed, err := load(loadPlan{First: total, Duration: closedFor, Limit: closedLimit})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	if len(closed) == 0 {
		return nil, fmt.Errorf("closed loop completed no request")
	}
	rates := ratePerSlice(closed, closedFor, 500*time.Millisecond)
	if rc.smoke { // too short for slices: one rate over the whole loop
		var last time.Time
		for _, s := range closed {
			if s.Done.After(last) {
				last = s.Done
			}
		}
		rates = []float64{float64(len(closed)) / last.Sub(closed[0].Due).Seconds()}
	}
	out.series["sat_rps"] = rates
	for _, rps := range rates {
		out.sample("wall_s", 1000/rps) // seconds per 1000 replies
	}
	out.values["alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(closed)) * 1000
	out.notef("closed loop: %d replies to %d clients in %v", len(closed), sweepdConns, closedFor)

	snap := r.srv.Snapshot()
	out.values["service.rejected"] = float64(snap.Requests.Rejected)
	out.values["service.server_errors"] = float64(snap.Requests.ServerErrors)
	engineCounts(out, snap.Engine)
	return out, nil
}

// tracedRequest is one request of a traced segment: what the client saw, what
// the middleware saw, and the engine cells it caused.
type tracedRequest struct {
	shot    shot
	handler handlerSpan
	// want holds the cell keys of the request's spec not yet matched to a
	// cell event.
	want  map[string]bool
	cells []engine.CellEvent
}

// accountTrace turns a traced open-loop segment into spans — client.request
// over service.handler over engine.cell — and reads the per-request self
// times off them.
func (r *rig) accountTrace(tr *tracer, out *outcome, m *mix, hotKeys [][]string, shots []shot, cells []engine.CellEvent) {
	r.mu.Lock()
	handlers := r.handlers
	r.handlers = nil
	r.mu.Unlock()
	byReq := map[int]handlerSpan{}
	for _, h := range handlers {
		byReq[h.req] = h
	}
	var reqs []*tracedRequest
	for _, s := range shots {
		h, ok := byReq[s.Index]
		if !ok || !s.OK {
			continue
		}
		keys := hotKeys[m.hotIndex(s.Index)]
		if m.isMiss(s.Index) {
			var spec service.Spec
			if err := json.Unmarshal(m.body(s.Index), &spec); err != nil {
				continue
			}
			rq, err := spec.Resolve()
			if err != nil {
				continue
			}
			keys = rq.CellKeys()
		}
		want := make(map[string]bool, len(keys))
		for _, k := range keys {
			want[k] = true
		}
		reqs = append(reqs, &tracedRequest{shot: s, handler: h, want: want})
	}
	// A cell belongs to the handler whose interval contains it and whose
	// spec has its key. Two concurrent requests for one hot spec each get
	// one cell per key, in start order. At most MaxActive handlers overlap,
	// so the scan from the oldest unfinished handler is short.
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].handler.start.Before(reqs[j].handler.start) })
	sort.Slice(cells, func(i, j int) bool { return cells[i].Start < cells[j].Start })
	const slack = 100 * time.Microsecond // between the two clocks' readings
	oldest := 0
	for _, ev := range cells {
		start := r.epoch.Add(ev.Start)
		end := start.Add(ev.Host)
		for oldest < len(reqs) && reqs[oldest].handler.end.Add(slack).Before(start) {
			oldest++
		}
		for _, rq := range reqs[oldest:] {
			if rq.handler.start.Add(-slack).After(start) {
				break
			}
			if rq.want[ev.Key] && !end.After(rq.handler.end.Add(slack)) {
				delete(rq.want, ev.Key)
				rq.cells = append(rq.cells, ev)
				break
			}
		}
	}
	sink := &cellSink{runnerEpoch: r.epoch}
	var serviceMS, transportMS, sums []float64
	perClass := map[string][]float64{}
	for _, rq := range reqs {
		s, h := rq.shot, rq.handler
		// The request's spans, parents as indices into tree.
		tree := []span{
			{Name: "client.request", Start: s.Sent.Sub(tr.epoch), End: s.Done.Sub(tr.epoch), Parent: -1, ID: s.Index},
			{Name: "service.handler", Start: h.start.Sub(tr.epoch), End: h.end.Sub(tr.epoch), Parent: 0, ID: s.Index},
		}
		for _, ev := range rq.cells {
			tree = append(tree, tr.cellSpan(sink, ev, 1, s.Index))
		}
		tr.addTree(tree)
		if m.isMiss(s.Index) {
			continue // self times are reported for hits, the common request
		}
		self := selfByLayer(tree, 0)
		transportMS = append(transportMS, ms(self["client.request"]))
		serviceMS = append(serviceMS, ms(self["service.handler"]))
		for _, class := range []string{"run", "disk", "memo"} {
			perClass[class] = append(perClass[class], self["engine.cell/"+class].Seconds())
		}
		sums = append(sums, float64(totalOf(self))/float64(tree[0].dur()))
	}
	out.values["self.service_ms"] = median(serviceMS)
	out.values["self.transport_ms"] = median(transportMS)
	out.values["self.engine_cell_run_s"] = median(perClass["run"])
	out.values["self.engine_cell_disk_s"] = median(perClass["disk"])
	out.values["self.engine_cell_memo_s"] = median(perClass["memo"])
	out.values["self.sum_frac"] = median(sums)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
