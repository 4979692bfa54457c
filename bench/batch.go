package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"partmb/internal/engine"
)

// runCtx is what one workload run is given: the seed its inputs and orders
// derive from, how long to measure, and where to put scratch files.
type runCtx struct {
	seed    int64
	seconds float64
	// smoke runs one pass (or 50 requests): enough to execute every
	// correctness check, not enough to measure.
	smoke bool
	// tr, when set, turns the run into the traced run: spans are recorded on
	// it, and the workload alternates traced and untraced measurements so the
	// overhead of tracing is known.
	tr *tracer
	// tmp is a directory under the checkout's .bench_build; the workload
	// creates and removes its own subdirectories.
	tmp string
}

func (rc *runCtx) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(rc.seed*1000003 + stream))
}

func (rc *runCtx) traced() bool { return rc.tr != nil }

func (rc *runCtx) budget() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	// failures holds the first few failed checks, for the report.
	failures []string
	// series are per-pass (or per-slice) samples of a metric; the reported
	// value is their median and the quartiles are printed beside it.
	series map[string][]float64
	// values are metrics that are a single number per run (percentiles,
	// counts).
	values map[string]float64
	// digests are SHA-256 sums of rendered outputs, compared across passes,
	// across workloads and against expected.json.
	digests map[string]string
	notes   []string
}

func newOutcome() *outcome {
	return &outcome{series: map[string][]float64{}, values: map[string]float64{}, digests: map[string]string{}}
}

func (o *outcome) sample(name string, v float64) { o.series[name] = append(o.series[name], v) }

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// get returns a metric's reported value: the median of its series, else its
// single value.
func (o *outcome) get(name string) (float64, bool) {
	if s, ok := o.series[name]; ok && len(s) > 0 {
		return median(s), true
	}
	v, ok := o.values[name]
	return v, ok
}

// passResult is what one pass of a batch workload hands back.
type passResult struct {
	digest string
	stats  engine.Stats
}

// meter times the measured part of one pass. A pass calls measure exactly
// once, around the work that counts; what it does outside (remote-2w's local
// comparison sweep) is not measured.
type meter struct {
	// tr is nil on an untraced pass; root is the bench.pass span and id the
	// pass number.
	tr            *tracer
	root, id      int
	wall, allocMB float64
}

func (m *meter) measure(fn func() error) error {
	runtime.GC() // every pass starts from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m.root = m.tr.begin("bench.pass", -1, m.id)
	t0 := time.Now()
	err := fn()
	m.wall = time.Since(t0).Seconds()
	m.tr.end(m.root)
	runtime.ReadMemStats(&m1)
	m.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	return err
}

// passFunc runs one pass.
type passFunc func(m *meter) (passResult, error)

// setupReps is how often a run repeats its set-up: setup_s is the median, and
// the last instance is the one the run measures on.
const setupReps = 3

// setUp builds the workload's state setupReps times (once in a smoke run),
// timing each build as a setup_s sample and stopping every instance but the
// last, whose stop function it returns.
func setUp(rc *runCtx, out *outcome, build func() (stop func(), err error)) (func(), error) {
	reps := setupReps
	if rc.smoke {
		reps = 1
	}
	stop := func() {}
	for i := 0; i < reps; i++ {
		stop()
		runtime.GC()
		t0 := time.Now()
		next, err := build()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.sample("setup_s", time.Since(t0).Seconds())
		stop = next
	}
	return stop, nil
}

// runBatch measures a workload that is a sequence of identical passes. setup
// builds everything a pass needs and returns the pass function and a teardown
// that releases it (temp dirs, listeners, goroutines).
func runBatch(rc *runCtx, setup func() (passFunc, func(), error)) (*outcome, error) {
	out := newOutcome()
	var pass passFunc
	teardown, err := setUp(rc, out, func() (stop func(), err error) {
		pass, stop, err = setup()
		return stop, err
	})
	if err != nil {
		return nil, err
	}
	defer teardown()

	minPasses := 3
	if rc.traced() {
		minPasses = 4 // two traced, two untraced
	}
	if rc.smoke {
		minPasses = 1
	}
	deadline := time.Now().Add(rc.budget())
	var tracedWall []float64
	for n := 0; n < minPasses || (!rc.smoke && time.Now().Before(deadline)); n++ {
		// In the traced run odd passes are traced and even ones are not, so
		// both see the same machine state.
		m := &meter{id: n, root: -1}
		if rc.traced() && n%2 == 1 {
			m.tr = rc.tr
		}
		res, err := pass(m)
		out.attempted++
		if err != nil {
			out.fail("pass %d: %v", n, err)
			continue
		}
		if first, ok := out.digests["tables"]; !ok {
			out.digests["tables"] = res.digest
		} else if first != res.digest {
			out.fail("pass %d: digest %.12s differs from first pass %.12s", n, res.digest, first)
			continue
		}
		if m.tr != nil {
			tracedWall = append(tracedWall, m.wall)
			continue // end-to-end numbers come from untraced passes only
		}
		out.sample("wall_s", m.wall)
		out.sample("alloc_mb", m.allocMB)
		out.sample("sat_rps", float64(res.stats.Cells)/m.wall)
		engineCounts(out, res.stats)
	}
	if len(tracedWall) > 0 && len(out.series["wall_s"]) > 0 {
		out.values["bench.trace_overhead_frac"] = median(tracedWall)/median(out.series["wall_s"]) - 1
	}
	// On a workload of passes the request is the pass: the latency metrics
	// read the median pass time, so that every workload reports
	// every end-to-end metric (see README.md).
	passMS := median(out.series["wall_s"]) * 1e3
	for _, name := range []string{"hit_p50_ms", "miss_p50_ms", "miss_p90_ms"} {
		out.values[name] = passMS
	}
	return out, nil
}

// engineCounts records one pass's engine counters as per-layer samples.
func engineCounts(out *outcome, st engine.Stats) {
	out.sample("engine.cells", float64(st.Cells))
	out.sample("engine.runs", float64(st.Runs))
	out.sample("engine.memo_hits", float64(st.Hits))
	out.sample("engine.disk_hits", float64(st.DiskHits))
	out.sample("engine.disk_read_bytes", float64(st.DiskReadBytes))
	out.sample("engine.disk_write_bytes", float64(st.DiskWriteBytes))
	out.sample("engine.util", st.Utilization)
}

// tracedRunner builds a runner for one pass. On a traced pass it installs a
// cell sink, whose epoch is the runner's creation time.
func tracedRunner(tr *tracer, opts ...engine.Option) (*engine.Runner, *cellSink) {
	if tr == nil {
		return engine.New(opts...), nil
	}
	sink := &cellSink{runnerEpoch: time.Now()}
	return engine.New(append(opts, engine.WithObserver(sink))...), sink
}

// tempDir creates a scratch directory under the run's tmp root.
func (rc *runCtx) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(rc.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(rc.tmp, pattern)
}
