package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"partmb/internal/classic"
	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/obs"
	"partmb/internal/patterns"
	"partmb/internal/sim"
	"partmb/internal/snap"
	"partmb/internal/stats"
)

// The experiment kinds every sweepworker serves: one engine.Cell each.
var allKinds = []string{
	"classic.Bandwidth", "classic.BiBandwidth", "classic.Latency", "classic.MatchStress",
	"classic.PartLatency", "classic.ThreadLatency", "core.Run", "patterns.Halo2D",
	"patterns.Halo3D", "patterns.Incast", "patterns.Sweep3D", "snap.Profile",
}

// sampling returns an adaptive config; a positive budget stops on wall-clock
// time, which leaves the cell uncacheable.
func sampling(budget time.Duration) *stats.RunConfig {
	return &stats.RunConfig{MinSamples: 2, MaxSamples: 4, Confidence: 0.95, TargetRelCI: 0.05, Budget: budget}
}

var (
	coreCfg    = core.Config{MessageBytes: 4096, Partitions: 2, Iterations: 2, Warmup: 1}
	sweepCfg   = patterns.SweepConfig{Px: 2, Py: 2, Threads: 2, BytesPerThread: 1024, Compute: 5 * sim.Microsecond, ZBlocks: 2, Octants: 2, Repeats: 1, Mode: patterns.Partitioned}
	haloCfg    = patterns.HaloConfig{Nx: 2, Ny: 2, Nz: 2, ThreadsPerDim: 1, FaceBytes: 4096, Compute: 5 * sim.Microsecond, Repeats: 1, Mode: patterns.Partitioned}
	halo2DCfg  = patterns.Halo2DConfig{Nx: 2, Ny: 2, ThreadsPerDim: 2, EdgeBytes: 4096, Compute: 5 * sim.Microsecond, Repeats: 1, Mode: patterns.Partitioned}
	incastCfg  = patterns.IncastConfig{Senders: 2, Threads: 2, BytesPerThread: 1024, Compute: 5 * sim.Microsecond, Repeats: 1, Mode: patterns.Partitioned}
	classicCfg = classic.Config{Iterations: 2, Warmup: 1}
	snapCfg    = snap.Config{TotalCompute: sim.Millisecond, BoundaryBytes: 1024, ZBlocks: 2, Octants: 2, Repeats: 1}
)

// kindCase resolves one cell of a kind through its public entry point.
type kindCase struct {
	name string
	run  func(rn *engine.Runner) (any, error)
}

func fixedCases() []kindCase {
	return []kindCase{
		{"core.Run", func(rn *engine.Runner) (any, error) { return core.RunCached(rn, coreCfg) }},
		{"patterns.Sweep3D", func(rn *engine.Runner) (any, error) { return patterns.Sweep3D.Run(rn, sweepCfg) }},
		{"patterns.Halo3D", func(rn *engine.Runner) (any, error) { return patterns.Halo3D.Run(rn, haloCfg) }},
		{"patterns.Halo2D", func(rn *engine.Runner) (any, error) { return patterns.Halo2D.Run(rn, halo2DCfg) }},
		{"patterns.Incast", func(rn *engine.Runner) (any, error) { return patterns.Incast.Run(rn, incastCfg) }},
		{"classic.Latency", func(rn *engine.Runner) (any, error) { return classic.Latency(rn, classicCfg, []int64{1024}) }},
		{"classic.Bandwidth", func(rn *engine.Runner) (any, error) { return classic.Bandwidth(rn, classicCfg, []int64{1024}, 4) }},
		{"classic.BiBandwidth", func(rn *engine.Runner) (any, error) { return classic.BiBandwidth(rn, classicCfg, []int64{1024}, 4) }},
		{"classic.ThreadLatency", func(rn *engine.Runner) (any, error) { return classic.ThreadLatency(rn, classicCfg, 2, 1024) }},
		{"classic.MatchStress", func(rn *engine.Runner) (any, error) { return classic.MatchStress(rn, classicCfg, 8) }},
		{"classic.PartLatency", func(rn *engine.Runner) (any, error) { return classic.PartLatency(rn, classicCfg, 4096, 4) }},
		{"snap.Profile", func(rn *engine.Runner) (any, error) { return snap.ProfileScaling(rn, snapCfg, []int{4}) }},
	}
}

// adaptiveCases are the sampled form of one kind per family.
func adaptiveCases(rc *stats.RunConfig) []kindCase {
	c, h, cl, s := coreCfg, halo2DCfg, classicCfg, snapCfg
	c.Adaptive, h.Adaptive, cl.Adaptive, s.Adaptive = rc, rc, rc, rc
	return []kindCase{
		{"core.Run", func(rn *engine.Runner) (any, error) { return core.RunCached(rn, c) }},
		{"patterns.Halo2D", func(rn *engine.Runner) (any, error) { return patterns.Halo2D.Run(rn, h) }},
		{"classic.Latency", func(rn *engine.Runner) (any, error) { return classic.Latency(rn, cl, []int64{1024}) }},
		{"snap.Profile", func(rn *engine.Runner) (any, error) { return snap.ProfileScaling(rn, s, []int{4}) }},
	}
}

// keyLog records the key of every resolved cell, in completion order.
type keyLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *keyLog) CellDone(ev engine.CellEvent) {
	l.mu.Lock()
	l.keys = append(l.keys, ev.Key)
	l.mu.Unlock()
}
func (l *keyLog) TaskDone(engine.TaskEvent) {}

// outerKey resolves c on a fresh runner and returns the key of the cell it
// resolved last — the outermost one, which finishes after its draws.
func outerKey(t *testing.T, c kindCase) string {
	t.Helper()
	log := &keyLog{}
	if _, err := c.run(engine.New(engine.Workers(1), engine.WithObserver(log))); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return log.keys[len(log.keys)-1]
}

// A cell's key is its identity in every cache directory and journal: these
// literal keys must never move, or every persisted cell is orphaned.
// Adaptive configs key with their sampling config (so they never alias a
// fixed cell), and a wall-clock budget leaves them unkeyed.
func TestCellKeysPinned(t *testing.T) {
	fixed := map[string]string{
		"core.Run":              "1b50d5edd1c46910dc7aedb4e0c3c89c363ae7547a507c0335b7819c66f7cb44",
		"patterns.Sweep3D":      "7e30440e7f50165b3a8a32e0c9f4807468b6c3363fb86a1d8a7ed882adab6a3a",
		"patterns.Halo3D":       "cd941b504d0955b2cb1186870694e732d2e85a76ae8a6a560f51cde1f154b1b1",
		"patterns.Halo2D":       "18e1748e6a568b75b505dd3fe0e4c480f41a9b2184a3bd0a23086ee846435d1d",
		"patterns.Incast":       "251657dd16d4032836d871acd4302cee50842220c875852baaa67c0ed741158e",
		"classic.Latency":       "885579379b79cbcdbdff57713647bc8b1908bfc74dea1e5a337ecaaa3665c97f",
		"classic.Bandwidth":     "f73cd16839fe1f574e307eadb13be59a9b580ce3f794981da2b974e9354cd9ad",
		"classic.BiBandwidth":   "ee6da7853a413e9c764080fdbf970a2b1d6bf31add86e73a2663a4c8d3689732",
		"classic.ThreadLatency": "ec7bd0764bd52155b7e8ea7557a617a771bea446fa63dc60a6d2eb74dca437b7",
		"classic.MatchStress":   "5226e9e7c4aa607a94a8a00dc7f9851735e5095ed7fff6a3681369defe6fb7f1",
		"classic.PartLatency":   "b5a6c3eb803dcae685b5cc7855c93ecd3bc6467448a2693f9777c7dae3840436",
		"snap.Profile":          "86173b7e5781d1533a4a0db99d31f9e070dde9ea45b50b1a5f1fcd54456ee379",
	}
	adaptive := map[string]string{
		"core.Run":        "05704f03983903adaa5a8175b43f26c3aced824578237669a0b4f87a10455123",
		"patterns.Halo2D": "e77799bfc3b485a9277482d281bcaca654b4889ae813144580279b8e8a47cf4d",
		"classic.Latency": "3941c2e43f202a78fff9ef9716b06b53902a30480cb8f55a34e151a7a2be30ef",
		"snap.Profile":    "9289fdbd548d6dd46d7051312e74af23fc7909030de2f98e8da476de9354cead",
	}
	for _, c := range fixedCases() {
		if got := outerKey(t, c); got != fixed[c.name] {
			t.Errorf("%s: key %q, want %q", c.name, got, fixed[c.name])
		}
	}
	for _, c := range adaptiveCases(sampling(0)) {
		if got := outerKey(t, c); got != adaptive[c.name] {
			t.Errorf("%s adaptive: key %q, want %q", c.name, got, adaptive[c.name])
		}
	}
	for _, c := range adaptiveCases(sampling(time.Hour)) {
		if got := outerKey(t, c); got != "" {
			t.Errorf("%s with a wall-clock budget: key %q, want uncacheable", c.name, got)
		}
	}

	// The sweep service recognizes its cells by the key the run files under.
	c := coreCfg
	if got := c.CacheKey(); got != fixed["core.Run"] {
		t.Errorf("core CacheKey = %q, want %q", got, fixed["core.Run"])
	}
	c.Adaptive = sampling(0)
	if got := c.CacheKey(); got != adaptive["core.Run"] {
		t.Errorf("adaptive core CacheKey = %q, want %q", got, adaptive["core.Run"])
	}
	c.Adaptive = sampling(time.Hour)
	if got := c.CacheKey(); got != "" {
		t.Errorf("budgeted core CacheKey = %q, want uncacheable", got)
	}
}

// kindCounter is an Executor that counts the kinds its fleet executed.
type kindCounter struct {
	engine.Executor
	mu    sync.Mutex
	kinds map[string]int
}

func (k *kindCounter) Execute(ctx context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	res, err := k.Executor.Execute(ctx, t)
	if err == nil {
		k.mu.Lock()
		k.kinds[t.Kind]++
		k.mu.Unlock()
	}
	return res, err
}

// Every family distributes: a quick Fig 11 (Halo3D), the SNAP scaling
// table, every classic entry point and one cell of every other kind run
// entirely on two in-process workers, and the deterministic journal and
// the values are byte-identical to a local run.
func TestEveryFamilyDistributes(t *testing.T) {
	sc, _ := figures.ScaleByName("quick")
	sc.HaloSizes, sc.HaloRepeats, sc.SnapNodes = []int64{64 << 10}, 1, []int{2, 4}
	run := func(opts ...engine.Option) (journal, values []byte, st engine.Stats) {
		t.Helper()
		col := obs.NewCollector()
		rn := engine.New(append([]engine.Option{engine.Workers(2), engine.WithObserver(col)}, opts...)...)
		var out bytes.Buffer
		env := figures.Env{Runner: rn}
		for _, fig := range []int{11, 13} {
			rn.SetExperiment("fig")
			tables, err := env.Generate(fig, sc)
			if err != nil {
				t.Fatalf("Fig %d: %v", fig, err)
			}
			for _, tb := range tables {
				tb.WriteText(&out)
			}
		}
		for _, c := range fixedCases() {
			rn.SetExperiment(c.name)
			v, err := c.run(rn)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			b, _ := json.Marshal(v)
			out.Write(append(b, '\n'))
		}
		var buf bytes.Buffer
		if err := obs.WriteJournal(&buf, "remote-test", col, false); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), out.Bytes(), rn.Stats()
	}

	localJ, localV, _ := run()

	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	startWorker(t, hs.URL, "worker-2", 0)
	counter := &kindCounter{Executor: c, kinds: map[string]int{}}
	distJ, distV, st := run(engine.WithExecutor(counter))

	if st.Runs == 0 || st.RemoteRuns != st.Runs {
		t.Errorf("distributed run: %d of %d cell runs on workers, want all", st.RemoteRuns, st.Runs)
	}
	var served []string
	for k := range counter.kinds {
		served = append(served, k)
	}
	sort.Strings(served)
	if !slices.Equal(served, allKinds) {
		t.Errorf("workers executed kinds %v, want all of %v", served, allKinds)
	}
	if !bytes.Equal(localV, distV) {
		t.Errorf("distributed values differ from local:\n--- local ---\n%s\n--- distributed ---\n%s", localV, distV)
	}
	if !bytes.Equal(localJ, distJ) {
		t.Errorf("distributed journal differs from local:\n--- local ---\n%s\n--- distributed ---\n%s", localJ, distJ)
	}
}

// Adaptive draws are cells of the sampled kind, so they distribute too; the
// sampled cell itself drives them from the local process.
func TestAdaptiveDrawsDistribute(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	startWorker(t, hs.URL, "worker-1", 0)
	counter := &kindCounter{Executor: c, kinds: map[string]int{}}
	rn := engine.New(engine.Workers(2), engine.WithExecutor(counter))
	cases := adaptiveCases(sampling(0))
	for _, kc := range cases {
		dist, err := kc.run(rn)
		if err != nil {
			t.Fatalf("%s: %v", kc.name, err)
		}
		local, err := kc.run(engine.New())
		if err != nil {
			t.Fatal(err)
		}
		db, _ := json.Marshal(dist)
		lb, _ := json.Marshal(local)
		if !bytes.Equal(db, lb) {
			t.Errorf("%s: distributed adaptive value differs from local:\n%s\n%s", kc.name, db, lb)
		}
		if counter.kinds[kc.name] == 0 {
			t.Errorf("%s: no draw executed on a worker", kc.name)
		}
	}
	if st := rn.Stats(); st.RemoteRuns != st.Runs-int64(len(cases)) {
		t.Errorf("%d of %d runs remote; want all but the %d sampled cells", st.RemoteRuns, st.Runs, len(cases))
	}
}

// The kind registry is process-global: a second definition of a kind is a
// programming error.
func TestRegisterKindTwicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering core.Run a second time did not panic")
		}
	}()
	RegisterKind("core.Run", func(json.RawMessage) (any, error) { return nil, nil })
}
