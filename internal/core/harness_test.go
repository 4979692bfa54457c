package core

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"partmb/internal/engine"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

// quickCfg returns a small but realistic benchmark config.
func quickCfg() Config {
	return Config{
		MessageBytes: 1 << 20,
		Partitions:   8,
		Compute:      10 * sim.Millisecond,
		Iterations:   4,
		Warmup:       1,
	}
}

func TestRunProducesSamples(t *testing.T) {
	res, err := Run(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 {
		t.Fatalf("samples = %d, want 4", len(res.Samples))
	}
	for i, s := range res.Samples {
		if s.TPt2Pt <= 0 || s.TPart <= 0 || s.TPartLast <= 0 {
			t.Fatalf("sample %d has non-positive timing: %+v", i, s)
		}
		if s.TBeforeJoin+s.TAfterJoin != s.TPart {
			t.Fatalf("sample %d: before+after != t_part: %+v", i, s)
		}
		if s.TPartLast > s.TPart {
			t.Fatalf("sample %d: last-partition time exceeds total: %+v", i, s)
		}
	}
	if res.String() == "" {
		t.Fatal("empty result string")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg := quickCfg()
	cfg.Platform = cfg.Platform.WithNoise(noise.Uniform, 4)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Overhead != b.Overhead || a.PerceivedBW != b.PerceivedBW ||
		a.Availability != b.Availability || a.EarlyBird != b.EarlyBird {
		t.Fatalf("same config diverged:\n  %v\n  %v", a, b)
	}
}

// Cells of every noise model, both implementations and three partition
// counts run one after another on one arena, each starting with what the
// previous one left, and equal their runs on no arena.
func TestRunOnArenaMatchesFreshRuns(t *testing.T) {
	var a sim.Arena
	defer a.Close()
	for i := 0; i < 12; i++ {
		cfg := quickCfg()
		cfg.Iterations = 2
		cfg.Partitions = []int{1, 8, 32}[i%3]
		kind := []noise.Kind{noise.None, noise.SingleThread, noise.Uniform, noise.Gaussian, noise.Periodic}[i%5]
		cfg.Platform = cfg.Platform.WithNoise(kind, 4).WithImpl([]mpi.PartImpl{mpi.PartMPIPCL, mpi.PartNative}[i%2]).WithSeed(int64(i))
		got, err := run(&a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell %d (%v, %d parts): on the arena %v, on none %v", i, kind, cfg.Partitions, got, want)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.MessageBytes = 0 },
		func(c *Config) { c.Partitions = 0 },
		func(c *Config) { c.MessageBytes = 1000; c.Partitions = 3 }, // not divisible
		func(c *Config) { c.Compute = -1 },
		func(c *Config) { c.Platform = &platform.Spec{NoisePercent: -2} },
	}
	for i, mutate := range bad {
		cfg := quickCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestOnePartitionOverheadNearOne(t *testing.T) {
	// Paper §4.2: with one partition, overhead is between ~1x and ~1.6x.
	for _, size := range []int64{4 << 10, 1 << 20, 16 << 20} {
		cfg := quickCfg()
		cfg.Partitions = 1
		cfg.MessageBytes = size
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overhead < 0.8 || res.Overhead > 2.2 {
			t.Errorf("size %s: 1-partition overhead = %.2f, want ~[1, 2]", FormatBytes(size), res.Overhead)
		}
	}
}

func TestOverheadGrowsWithPartitionsForSmallMessages(t *testing.T) {
	// Paper §4.2 / Fig 4: small messages suffer increasing overhead with
	// partition count; 32 partitions step up further via socket spillover.
	base := quickCfg()
	base.MessageBytes = 32 << 10
	get := func(parts int) float64 {
		cfg := base
		cfg.Partitions = parts
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Overhead
	}
	o1, o8, o16, o32 := get(1), get(8), get(16), get(32)
	if !(o1 < o8 && o8 < o16 && o16 < o32) {
		t.Fatalf("overhead not increasing: 1p=%.2f 8p=%.2f 16p=%.2f 32p=%.2f", o1, o8, o16, o32)
	}
	if o32 < 2*o16*0.8 {
		t.Fatalf("no socket-spillover step at 32 partitions: 16p=%.2f 32p=%.2f", o16, o32)
	}
}

func TestOverheadNearOneForLargeMessages(t *testing.T) {
	// Paper §4.2: for large messages the overhead approaches 1 even at
	// higher partition counts.
	cfg := quickCfg()
	cfg.MessageBytes = 64 << 20
	cfg.Partitions = 16
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead > 1.6 {
		t.Fatalf("64MiB/16p overhead = %.2f, want near 1", res.Overhead)
	}
}

func TestColdCacheLowersOverheadRatio(t *testing.T) {
	// Paper §4.2: the cold cache *lowers* the overhead ratio because the
	// memory cost amortizes in both numerator and denominator.
	base := quickCfg()
	base.MessageBytes = 256 << 10
	base.Partitions = 16
	hotCfg, coldCfg := base, base
	coldCfg.Platform = coldCfg.Platform.WithCache(memsim.Cold)
	hot, err := Run(hotCfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(coldCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Overhead >= hot.Overhead {
		t.Fatalf("cold overhead %.2f not below hot %.2f", cold.Overhead, hot.Overhead)
	}
}

func TestAvailabilityHighSmallLowHuge(t *testing.T) {
	// Paper §4.4 / Fig 6: with noise, availability near 1 for small
	// messages, dropping off for multi-MB messages.
	base := quickCfg()
	base.Platform = base.Platform.WithNoise(noise.SingleThread, 4)
	base.Partitions = 16
	get := func(size int64) float64 {
		cfg := base
		cfg.MessageBytes = size
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Availability
	}
	small := get(256 << 10)
	huge := get(64 << 20)
	if small < 0.8 {
		t.Fatalf("availability for 256KiB = %.3f, want near 1", small)
	}
	if huge > small-0.2 {
		t.Fatalf("availability did not drop for 64MiB: small=%.3f huge=%.3f", small, huge)
	}
}

func TestSingleDelayBeatsDistributedNoise(t *testing.T) {
	// Paper §4.4 / Fig 7: the single-thread delay model yields the best
	// availability for small messages.
	base := quickCfg()
	base.MessageBytes = 256 << 10
	base.Partitions = 16
	get := func(k noise.Kind) float64 {
		cfg := base
		cfg.Platform = cfg.Platform.WithNoise(k, 4)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Availability
	}
	single := get(noise.SingleThread)
	uniform := get(noise.Uniform)
	gaussian := get(noise.Gaussian)
	if single < uniform || single < gaussian {
		t.Fatalf("single delay (%.3f) not best: uniform=%.3f gaussian=%.3f", single, uniform, gaussian)
	}
}

func TestEarlyBirdHighWithNoiseAndCompute(t *testing.T) {
	// Paper §4.5 / Fig 8: with uniform noise, most communication happens
	// before the join for small/medium messages.
	cfg := quickCfg()
	cfg.MessageBytes = 1 << 20
	cfg.Partitions = 16
	cfg.Platform = cfg.Platform.WithNoise(noise.Uniform, 4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EarlyBird < 50 {
		t.Fatalf("early-bird = %.1f%%, want majority before join", res.EarlyBird)
	}
	if res.EarlyBird > 100 {
		t.Fatalf("early-bird = %.1f%% exceeds 100%%", res.EarlyBird)
	}
}

func TestPerceivedBandwidthPeaksThenDeclines(t *testing.T) {
	// Paper §4.3 / Fig 5: perceived bandwidth climbs with message size to a
	// peak then declines once a single partition saturates the link.
	cfg := quickCfg()
	cfg.Partitions = 16
	cfg.Platform = cfg.Platform.WithNoise(noise.Uniform, 4)
	results, err := SweepMessageSizes(nil, cfg, MessageSizes(64<<10, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	peakIdx, peak := 0, 0.0
	for i, r := range results {
		if r.PerceivedBW > peak {
			peak, peakIdx = r.PerceivedBW, i
		}
	}
	if peakIdx == 0 || peakIdx == len(results)-1 {
		t.Fatalf("no interior perceived-bandwidth peak: peak at index %d of %d", peakIdx, len(results))
	}
	linkBW := 12e9
	if peak < 1.5*linkBW {
		t.Fatalf("peak perceived bandwidth %.2g not well above link bandwidth %.2g", peak, linkBW)
	}
}

func TestSweepPartitionsSkipsNonDividing(t *testing.T) {
	cfg := quickCfg()
	cfg.MessageBytes = 1 << 20
	results, err := sweepPartitions(nil, cfg, []int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	// 3 does not divide 1MiB; 1 and 4 do.
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2 (non-dividing counts skipped)", len(results))
	}
}

// TestConcurrentSweepsShareOneRunner is the regression test for sweeps of
// different lengths racing on one runner, the way sweepd's concurrent
// requests do: each sweep's cost function must belong to that sweep alone.
// When it sat in a runner-level slot "for the next sweep", a longer sweep
// could take a shorter sweep's function and index out of range on the
// caller's goroutine — once in several thousand sweeps on two cores, hence the
// iteration count; the cells are memoised and the sweeps short to afford it.
func TestConcurrentSweepsShareOneRunner(t *testing.T) {
	rn := engine.New(engine.Workers(2))
	cfg := Config{Partitions: 1, Iterations: 1, Warmup: -1}
	sweeps := [][]int64{MessageSizes(1<<10, 1<<10), MessageSizes(1<<10, 1<<11)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20000; it++ {
				sizes := sweeps[(g+it)%2]
				results, err := SweepMessageSizes(rn, cfg, sizes)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range results {
					if r.Config.MessageBytes != sizes[i] {
						t.Errorf("result %d is for %d bytes, want %d", i, r.Config.MessageBytes, sizes[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNativeImplLowersOverhead(t *testing.T) {
	base := quickCfg()
	base.MessageBytes = 64 << 10
	base.Partitions = 16
	pcclCfg, nativeCfg := base, base
	nativeCfg.Platform = nativeCfg.Platform.WithImpl(mpi.PartNative)
	pccl, err := Run(pcclCfg)
	if err != nil {
		t.Fatal(err)
	}
	native, err := Run(nativeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if native.Overhead >= pccl.Overhead {
		t.Fatalf("native overhead %.2f not below MPIPCL %.2f", native.Overhead, pccl.Overhead)
	}
}

func TestRunEmitsTrace(t *testing.T) {
	cfg := quickCfg()
	rec := new(trace.Recorder)
	cfg.Trace = rec
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// Per measured iteration: 1 pt2pt span + n compute spans + n Pready
	// instants + n transfer spans + 1 join instant.
	n := cfg.Partitions
	want := cfg.Iterations * (1 + 3*n + 1)
	if rec.Len() != want {
		t.Fatalf("trace events = %d, want %d", rec.Len(), want)
	}
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace output")
	}
}

func TestWarmupIterationsDiscarded(t *testing.T) {
	cfg := quickCfg()
	cfg.Iterations = 3
	cfg.Warmup = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 3 {
		t.Fatalf("samples = %d, want Iterations only", len(res.Samples))
	}
}

func TestPruneSigmaAffectsAggregation(t *testing.T) {
	// With Gaussian noise some iterations are outliers; disabling pruning
	// must change (or at least not silently equal) the aggregate when the
	// sample set contains spread.
	base := quickCfg()
	base.Platform = base.Platform.WithNoise(noise.Gaussian, 40) // extreme spread to force outliers
	base.Iterations = 12
	pruned := base
	pruned.PruneSigma = 1 // aggressive
	loose := base
	loose.PruneSigma = -1 // sentinel: withDefaults keeps it, Prune disabled
	a, err := Run(pruned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	// Raw samples identical (same seed) ...
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs between runs", i)
		}
	}
	// ... but the pruned aggregate differs.
	if a.Overhead == b.Overhead {
		t.Fatalf("pruning had no effect on the aggregate (%v)", a.Overhead)
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	rn := engine.New()
	a, err := RunCached(rn, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCached(rn, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs did not share a cached result")
	}
	st := rn.Stats()
	if st.Runs != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 run, 1 hit", st)
	}
	// A different cell must not collide.
	other := quickCfg()
	other.Partitions = 4
	c, err := RunCached(rn, other)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different configs shared a cache entry")
	}
	// Traced configs have side effects and must never be served from cache.
	traced := quickCfg()
	traced.Trace = new(trace.Recorder)
	if key := traced.CacheKey(); key != "" {
		t.Fatalf("traced config got cache key %q, want uncacheable", key)
	}
}

func TestColdCacheInvalidationExtendsIteration(t *testing.T) {
	// The invalidation pass runs outside the timed region but still costs
	// wall (virtual) time: raw samples should be unaffected, while the
	// iteration barrier cadence stretches. We check samples only.
	hot := quickCfg()
	cold := quickCfg()
	cold.Platform = cold.Platform.WithCache(memsim.Cold)
	a, err := Run(hot)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}
	// Cold pt2pt includes the DRAM fetch: strictly slower.
	if b.Samples[0].TPt2Pt <= a.Samples[0].TPt2Pt {
		t.Fatalf("cold pt2pt (%v) not slower than hot (%v)", b.Samples[0].TPt2Pt, a.Samples[0].TPt2Pt)
	}
}
