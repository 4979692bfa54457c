package patterns

import (
	"partmb/internal/engine"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

// The motif cells: Run memoizes a motif on the runner's content-addressed
// cache (and persistent disk cache, when configured), so repeated cells
// (the same motif point shared by several figures or suites) simulate once
// per process, and ships it to the runner's remote workers when an executor
// is installed. Configs are hashed after defaulting, so two configs that
// resolve identically share a cell; a ShardTrace recorder is host-timing
// dependent and excluded from the hash, so a traced config always runs
// fresh. A nil runner is a fresh default runner.
//
// With an Adaptive config set, the motif samples its throughput across
// derived noise seeds until the confidence interval is tight (the adaptive
// config participates in the cache key, so adaptive and fixed cells never
// alias); each draw is itself a cell, keyed under its derived seed. The
// value is the first draw's Result with the estimate attached.
var (
	Sweep3D = motif("patterns.Sweep3D", SweepConfig.withDefaults, runSweep3D,
		func(c *SweepConfig) (**stats.RunConfig, **platform.Spec, *trace.Recorder) {
			return &c.Adaptive, &c.Platform, c.ShardTrace
		})
	Halo3D = motif("patterns.Halo3D", HaloConfig.withDefaults, runHalo3D,
		func(c *HaloConfig) (**stats.RunConfig, **platform.Spec, *trace.Recorder) {
			return &c.Adaptive, &c.Platform, c.ShardTrace
		})
	Halo2D = motif("patterns.Halo2D", Halo2DConfig.withDefaults, runHalo2D,
		func(c *Halo2DConfig) (**stats.RunConfig, **platform.Spec, *trace.Recorder) {
			return &c.Adaptive, &c.Platform, nil
		})
	Incast = motif("patterns.Incast", IncastConfig.withDefaults, runIncast,
		func(c *IncastConfig) (**stats.RunConfig, **platform.Spec, *trace.Recorder) {
			return &c.Adaptive, &c.Platform, nil
		})
)

// motif defines a motif's cell; fields exposes a config's sampling config,
// platform and shard-trace recorder.
func motif[C any](kind string, defaults func(C) C, run func(*sim.Arena, C) (*Result, error),
	fields func(*C) (**stats.RunConfig, **platform.Spec, *trace.Recorder)) *engine.Cell[C, *Result] {
	return engine.NewCell(kind,
		func(c C) (C, *stats.RunConfig, bool) {
			c = defaults(c)
			rc, _, tr := fields(&c)
			return c, *rc, tr != nil
		},
		func(a *sim.Arena, c C, _ []int64) (*Result, error) { return run(a, c) },
		func(cell *engine.Cell[C, *Result], r *engine.Runner, cfg C, _ []int64) (*Result, error) {
			first, est, err := cell.Draws(r, cfg, nil, func(c C, d int) C {
				rc, pf, _ := fields(&c)
				*rc, *pf = nil, derivedSpec(*pf, d)
				return c
			}, (*Result).Throughput)
			if err != nil {
				return nil, err
			}
			out := *first
			out.CI = &est
			return &out, nil
		})
}

// derivedSpec resolves pf and swaps in the seed of adaptive draw d.
func derivedSpec(pf *platform.Spec, d int) *platform.Spec {
	pf = pf.Resolved()
	return pf.WithSeed(stats.DeriveSeed(pf.Seed, d))
}
