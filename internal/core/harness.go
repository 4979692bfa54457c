package core

import (
	"fmt"
	"slices"

	"partmb/internal/cluster"
	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/noise"
	"partmb/internal/omp"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

// Tags used by the two-process harness.
const (
	tagSingle = 1
	tagPart   = 2
)

// Config describes one point of the benchmark parameter space (§3: message
// size, partition count, compute amount) on a platform.Spec that bundles
// the environment knobs (noise, cache state, threading, implementation,
// fabric, node).
type Config struct {
	// MessageBytes is the total message size m; it must be divisible by
	// Partitions.
	MessageBytes int64
	// Partitions is the partition count n; one thread readies one
	// partition (the paper's assignment).
	Partitions int
	// Compute is the per-thread compute amount per iteration.
	Compute sim.Duration
	// Iterations is the number of measured iterations; Warmup iterations
	// run first and are discarded. Warmup 0 means the default; a negative
	// Warmup means explicitly none (the adaptive path runs warmup in-band
	// and discards it with MSER detection instead).
	Iterations int
	Warmup     int
	// Adaptive, when non-nil, switches RunCached to confidence-targeted
	// sampling (see runAdaptive): instead of one run of fixed Iterations,
	// the cell draws batches across derived noise seeds until every metric's
	// confidence interval is tight enough or the sample/wall-clock budget
	// runs out. Nil keeps the fixed-rep path and the pre-adaptive cache
	// keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
	// PruneSigma drops samples more than this many standard deviations
	// from the mean before aggregation (§4.1); 0 disables pruning.
	PruneSigma float64
	// Platform is the simulated platform: machine, fabric, cache mode,
	// noise model, seed, threading level, and partitioned implementation
	// (nil = the paper's Niagara+EDR defaults).
	Platform *platform.Spec `json:"Platform,omitempty"`
	// Topology overrides the rank-pair latency map (nil = uniform
	// single-wing, the paper's point-to-point setup). Configs with a
	// custom topology are never memoized.
	Topology netsim.Topology `json:"-"`
	// Trace, when non-nil, records a per-iteration timeline (thread
	// compute spans, Pready instants, per-partition transfer spans, the
	// single-send reference) in Chrome trace-event form. Configs with a
	// trace recorder are never memoized.
	Trace *trace.Recorder `json:"-"`
}

// withDefaults fills unset fields with the paper's defaults.
func (c Config) withDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 10
	}
	if c.Warmup == 0 {
		c.Warmup = 2
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.PruneSigma == 0 {
		c.PruneSigma = 3
	}
	c.Platform = c.Platform.Resolved()
	if c.Platform.ThreadMode == mpi.Funneled && c.Partitions > 1 {
		// Threads call Pready concurrently; the layered library needs
		// THREAD_MULTIPLE, as the paper's MPIPCL setup did.
		c.Platform = c.Platform.WithThreadMode(mpi.Multiple)
	}
	return c
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.MessageBytes <= 0 {
		return fmt.Errorf("core: MessageBytes = %d, must be positive", c.MessageBytes)
	}
	if c.Partitions <= 0 {
		return fmt.Errorf("core: Partitions = %d, must be positive", c.Partitions)
	}
	if c.MessageBytes%int64(c.Partitions) != 0 {
		return fmt.Errorf("core: MessageBytes %d not divisible by Partitions %d", c.MessageBytes, c.Partitions)
	}
	if c.Compute < 0 {
		return fmt.Errorf("core: negative Compute")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if c.Iterations <= 0 || c.Warmup < 0 {
		return fmt.Errorf("core: Iterations must be positive and Warmup non-negative")
	}
	return nil
}

// Sample holds the raw timings of one measured iteration (Figure 3's
// quantities).
type Sample struct {
	// TPt2Pt is the single-send transfer time (send start to receive
	// completion) for the full message.
	TPt2Pt sim.Duration
	// TPart is first MPI_Pready to last partition arrival.
	TPart sim.Duration
	// TPartLast is the last-readied partition's transfer time.
	TPartLast sim.Duration
	// TBeforeJoin / TAfterJoin split TPart around the equivalent
	// single-send thread-join instant.
	TBeforeJoin sim.Duration
	TAfterJoin  sim.Duration
}

// Result aggregates a benchmark run at one parameter point.
type Result struct {
	Config  Config
	Samples []Sample

	// Aggregated metrics (outlier-pruned means).
	Overhead     float64 // Eq. 1, unitless slowdown
	PerceivedBW  float64 // Eq. 2, bytes/second
	Availability float64 // Eq. 3, fraction
	EarlyBird    float64 // Eq. 4, percent

	// CI carries the per-metric confidence estimates of an adaptive run
	// (nil on the fixed-rep path, so fixed-path JSON stays byte-identical).
	CI *ResultCI `json:",omitempty"`
}

// SimElapsed returns the total virtual time the measured iterations
// covered (the single-send reference plus the partitioned transfer of each
// sample) — the cell-level "virtual sim time" the observability journal
// records (see internal/obs.SimTimed).
func (r *Result) SimElapsed() sim.Duration {
	var total sim.Duration
	for _, s := range r.Samples {
		total += s.TPt2Pt + s.TPart
	}
	return total
}

// readyThreads is what a sender's threads do after computing, one body for
// every fork of a cell: thread i readies partition i when ready is set.
// name formats thread i's name from the iteration and i, so threads keep
// the names they had when every fork formatted them.
type readyThreads struct {
	name  string
	ready bool
	it    int
	psend *mpi.PRequest
}

func (b *readyThreads) Thread(tp *sim.Proc, i int) {
	if b.ready {
		b.psend.Pready(tp, i)
	}
}

func (b *readyThreads) ThreadName(i int) string { return fmt.Sprintf(b.name, b.it, i) }

// iterRecord is the cross-rank scratchpad for one iteration.
type iterRecord struct {
	pt2ptStart sim.Time
	pt2ptEnd   sim.Time
	firstReady sim.Time
	lastReady  sim.Time
	lastArrive sim.Time
	joinEquiv  sim.Time
	forkAt     sim.Time
	// timeline detail, kept only when tracing
	computes    []sim.Duration
	readyTimes  []sim.Time
	arriveTimes []sim.Time
}

// Run executes the two-process benchmark at one parameter point and returns
// the aggregated result.
func Run(cfg Config) (*Result, error) { return run(nil, cfg) }

// run is Run with its simulation built on arena a.
func run(a *sim.Arena, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pf := cfg.Platform
	s := a.New()
	mcfg := pf.MPIConfig(2)
	mcfg.ThreadMode = pf.ThreadMode
	mcfg.PartImpl = pf.Impl
	mcfg.Topology = cfg.Topology
	w := mpi.NewWorld(s, mcfg)

	n := cfg.Partitions
	partBytes := cfg.MessageBytes / int64(n)
	placement := cluster.Place(pf.Machine, n)
	noiseModel := noise.New(pf.NoiseKind, pf.NoisePercent, pf.Seed, a)
	invalidate := mcfg.Mem.InvalidateCost()
	total := cfg.Warmup + cfg.Iterations

	records := make([]iterRecord, total)
	if cfg.Trace != nil {
		// The timeline detail of every iteration shares one array per
		// type; without a trace it stays nil and filling it does nothing.
		computes := make([]sim.Duration, total*n)
		times := make([]sim.Time, 2*total*n)
		for it := range records {
			rec := &records[it]
			rec.computes = computes[it*n : (it+1)*n]
			rec.readyTimes = times[2*it*n : (2*it+1)*n]
			rec.arriveTimes = times[(2*it+1)*n : (2*it+2)*n]
		}
	}

	// Sender, rank 0.
	s.Spawn("bench/sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(placement)
		psend := c.PsendInit(p, 1, tagPart, n, partBytes)
		single := c.SendInitBytes(p, 1, tagSingle, cfg.MessageBytes)
		threads := &readyThreads{psend: psend}
		compute := omp.NewCompute(placement, noiseModel, cfg.Compute, threads)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			rec := &records[it]
			c.Barrier(p)
			if invalidate > 0 {
				p.Sleep(invalidate)
			}

			// Phase 1 — single-send model: fork, compute, join, one send.
			threads.name, threads.ready, threads.it = "w1-%d-%d", false, it
			omp.ComputeRegion(p, compute)
			rec.pt2ptStart = p.Now()
			single.Start(p)
			single.Wait(p)
			c.Barrier(p) // phase boundary: receiver has completed and re-armed

			// Phase 2 — partitioned: fork, compute the same draws, Pready
			// per thread.
			psend.Start(p)
			rec.forkAt = p.Now()
			rec.joinEquiv = rec.forkAt.Add(slices.Max(compute.Times))
			threads.name, threads.ready = "w2-%d-%d", true
			omp.Region(p, n, compute)
			psend.Wait(p)
			rec.firstReady = psend.FirstReadyAt()
			rec.lastReady = psend.ReadyAt(0)
			for i := 1; i < n; i++ {
				rec.lastReady = max(rec.lastReady, psend.ReadyAt(i))
			}
			copy(rec.computes, compute.Times)
			for i := range rec.readyTimes {
				rec.readyTimes[i] = psend.ReadyAt(i)
			}
			c.Barrier(p) // iteration end
		}
	})

	// Receiver, rank 1.
	s.Spawn("bench/receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		precv := c.PrecvInit(p, 0, tagPart, n, partBytes)
		single := c.RecvInit(p, 0, tagSingle)
		c.Barrier(p)
		for it := 0; it < total; it++ {
			rec := &records[it]
			c.Barrier(p)
			if invalidate > 0 {
				p.Sleep(invalidate)
			}
			// Phase 1: pre-post, then wait for the full message.
			single.Start(p)
			single.Wait(p)
			rec.pt2ptEnd = single.CompletedAt()
			c.Barrier(p)

			// Phase 2: arm the partitioned receive before any Pready can
			// land (the sender computes first).
			precv.Start(p)
			precv.Wait(p)
			rec.lastArrive = precv.LastArriveAt()
			for i := range rec.arriveTimes {
				rec.arriveTimes[i] = precv.ArrivedAt(i)
			}
			c.Barrier(p)
		}
	})

	if err := s.Run(); err != nil {
		return nil, fmt.Errorf("core: benchmark simulation failed: %w", err)
	}

	res := &Result{Config: cfg}
	for it := cfg.Warmup; it < total; it++ {
		rec := &records[it]
		before, after := splitAtJoin(rec.firstReady, rec.lastArrive, rec.joinEquiv)
		res.Samples = append(res.Samples, Sample{
			TPt2Pt:      rec.pt2ptEnd.Sub(rec.pt2ptStart),
			TPart:       rec.lastArrive.Sub(rec.firstReady),
			TPartLast:   rec.lastArrive.Sub(rec.lastReady),
			TBeforeJoin: before,
			TAfterJoin:  after,
		})
	}
	res.aggregate()
	if cfg.Trace != nil {
		for it := cfg.Warmup; it < total; it++ {
			emitTrace(cfg.Trace, it-cfg.Warmup, &records[it])
		}
	}
	return res, nil
}

// runCell is the core.Run kind: one benchmark cell. A trace recorder
// records events on every run and a custom topology is an interface the
// hash cannot see through, so either leaves the cell uncacheable. Adaptive
// cells sample with runAdaptive; their fixed-rep draws are cells of this
// kind, so they are what distributes.
var runCell = engine.NewCell("core.Run",
	func(c Config) (Config, *stats.RunConfig, bool) {
		c = c.withDefaults()
		if c.Adaptive != nil {
			// Adaptive cells have always taken defaults twice before keying
			// (a negative Warmup becomes 0, then 2); their keys stay put.
			c = c.withDefaults()
		}
		return c, c.Adaptive, c.Trace != nil || c.Topology != nil
	},
	func(a *sim.Arena, c Config, _ []int64) (*Result, error) { return run(a, c) },
	runAdaptive)

// CacheKey returns the content-addressed engine cell key RunCached files
// this configuration under — "" when the cell is uncacheable (trace or
// custom topology attached, or an adaptive wall-clock budget that makes
// results host-speed dependent). Callers that watch the engine's observer
// stream (e.g. the sweep service's progress SSE) use it to recognize their
// own cells.
func (c Config) CacheKey() string { return runCell.Key(c) }

// RunCached is Run memoized through the runner's content-addressed cache
// (and its persistent disk cache, when one is configured): configurations
// that resolve identically share one simulation per process. The simulator
// is deterministic and a *Result round-trips losslessly through JSON, so a
// cached Result — in-memory or reloaded from disk — is bit-identical to a
// fresh run; callers must treat it as immutable. With an executor
// installed the cell runs on a remote worker. A nil runner means a fresh
// engine.New(), whose memo is thrown away with it.
//
// When cfg.Adaptive is set, the cell runs confidence-targeted sampling
// (see runAdaptive) instead of fixed reps; the adaptive config participates
// in the cache key, so adaptive and fixed results never alias, and a
// wall-clock budget makes the cell uncacheable.
func RunCached(rn *engine.Runner, cfg Config) (*Result, error) {
	return runCell.Run(rn, cfg)
}

// emitTrace renders one measured iteration as Chrome trace events: the
// sender rank is pid 0 (one tid per thread), the receiver rank pid 1 (one
// tid per partition).
func emitTrace(tr *trace.Recorder, iter int, rec *iterRecord) {
	itArg := map[string]string{"iteration": fmt.Sprint(iter)}
	tr.Span(0, 0, "pt2pt", "single-send reference", rec.pt2ptStart, rec.pt2ptEnd, itArg)
	for i, d := range rec.computes {
		tr.Span(0, i+1, "compute", fmt.Sprintf("thread %d compute", i), rec.forkAt, rec.forkAt.Add(d), itArg)
		tr.Instant(0, i+1, "part", fmt.Sprintf("Pready %d", i), rec.readyTimes[i], itArg)
	}
	for i := range rec.arriveTimes {
		tr.Span(1, i+1, "part", fmt.Sprintf("partition %d transfer", i), rec.readyTimes[i], rec.arriveTimes[i], itArg)
	}
	tr.Instant(0, 0, "join", "equivalent single-send join", rec.joinEquiv, itArg)
}

// aggregate computes the pruned-mean metrics from the samples.
func (r *Result) aggregate() {
	n := len(r.Samples)
	overhead := make([]float64, 0, n)
	perceived := make([]float64, 0, n)
	avail := make([]float64, 0, n)
	early := make([]float64, 0, n)
	for _, s := range r.Samples {
		overhead = append(overhead, Overhead(s.TPart, s.TPt2Pt))
		perceived = append(perceived, PerceivedBandwidth(r.Config.MessageBytes, s.TPartLast))
		avail = append(avail, Availability(s.TAfterJoin, s.TPt2Pt))
		early = append(early, EarlyBirdPct(s.TBeforeJoin, s.TPart))
	}
	k := r.Config.PruneSigma
	r.Overhead = stats.Mean(stats.PruneOutliers(overhead, k))
	r.PerceivedBW = stats.Mean(stats.PruneOutliers(perceived, k))
	r.Availability = stats.Mean(stats.PruneOutliers(avail, k))
	r.EarlyBird = stats.Mean(stats.PruneOutliers(early, k))
}

// String renders a one-line summary.
func (r *Result) String() string {
	pf := r.Config.Platform.Resolved()
	return fmt.Sprintf("m=%s parts=%d comp=%v noise=%s/%.0f%% cache=%s impl=%s: overhead=%.2fx perceivedBW=%.2fGB/s avail=%.3f early=%.1f%%",
		FormatBytes(r.Config.MessageBytes), r.Config.Partitions, r.Config.Compute,
		pf.NoiseKind, pf.NoisePercent, pf.Cache, pf.Impl,
		r.Overhead, r.PerceivedBW/1e9, r.Availability, r.EarlyBird)
}

// FormatBytes renders a byte count with a binary unit.
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
