package core

import (
	"fmt"

	"partmb/internal/engine"
	"partmb/internal/stats"
)

// Metric names the adaptive sampler tracks per cell, in reporting order.
const (
	MetricOverhead     = "overhead"
	MetricPerceivedBW  = "perceived_bw"
	MetricAvailability = "availability"
	MetricEarlyBird    = "early_bird"
)

// ResultCI is the uncertainty report of an adaptive run: one confidence
// estimate per metric, plus how much sampling it took to get there.
type ResultCI struct {
	Overhead     stats.Estimate `json:"overhead"`
	PerceivedBW  stats.Estimate `json:"perceived_bw"`
	Availability stats.Estimate `json:"availability"`
	EarlyBird    stats.Estimate `json:"early_bird"`
	// Draws is the number of independent simulations (distinct derived
	// noise seeds) the cell consumed.
	Draws int `json:"draws"`
	// TotalIterations is the number of simulated iterations across all
	// draws, including the in-band warmup slack — the quantity to compare
	// against fixed-rep Warmup+Iterations when measuring sweep savings.
	TotalIterations int `json:"total_iters"`
	// WarmupDropped counts leading samples discarded by MSER detection
	// across all draws.
	WarmupDropped int `json:"warmup_dropped"`
	// Converged reports whether every metric met its CI target; Reason is
	// the worst stop reason across metrics ("converged", "max-samples",
	// "budget" — budget exhaustion is reported, never silent).
	Converged bool   `json:"converged"`
	Reason    string `json:"reason"`
}

// estimates returns the per-metric estimates keyed by the Metric* names, in
// reporting order.
func (ci *ResultCI) estimates() []struct {
	Name string
	Est  stats.Estimate
} {
	return []struct {
		Name string
		Est  stats.Estimate
	}{
		{MetricOverhead, ci.Overhead},
		{MetricPerceivedBW, ci.PerceivedBW},
		{MetricAvailability, ci.Availability},
		{MetricEarlyBird, ci.EarlyBird},
	}
}

// maxRelHalfWidth returns the loosest relative CI half-width across the
// four metrics — the single per-cell tightness number journals record.
func (ci *ResultCI) maxRelHalfWidth() float64 {
	var worst float64
	for _, e := range ci.estimates() {
		if e.Est.RelHalfWidth > worst {
			worst = e.Est.RelHalfWidth
		}
	}
	return worst
}

// SampleStats implements the observability layer's Sampled interface (see
// internal/obs): number of post-warmup samples, worst relative CI
// half-width, and stop reason. Fixed-path results report n == 0 so their
// journal records do not change shape.
func (r *Result) SampleStats() (n int, relCI float64, reason string) {
	if r.CI == nil {
		return 0, 0, ""
	}
	return r.CI.Overhead.N, r.CI.maxRelHalfWidth(), r.CI.Reason
}

// metricSamples computes the per-iteration metric streams from raw samples.
func metricSamples(cfg Config, samples []Sample) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range samples {
		out[MetricOverhead] = append(out[MetricOverhead], Overhead(s.TPart, s.TPt2Pt))
		out[MetricPerceivedBW] = append(out[MetricPerceivedBW], PerceivedBandwidth(cfg.MessageBytes, s.TPartLast))
		out[MetricAvailability] = append(out[MetricAvailability], Availability(s.TAfterJoin, s.TPt2Pt))
		out[MetricEarlyBird] = append(out[MetricEarlyBird], EarlyBirdPct(s.TBeforeJoin, s.TPart))
	}
	return out
}

// runAdaptive is the core.Run cell's sampler: batches of iterations are
// simulated under derived noise seeds (stats.DeriveSeed over the platform
// seed, so draws are independent but fully reproducible) until every
// metric's confidence interval meets cfg.Adaptive.TargetRelCI, or the
// sample/wall-clock budget runs out. Fixed warmup is replaced by in-band
// MSER warmup detection: each draw simulates the configured warmup count as
// extra leading iterations and discards only as many as the marginal
// standard error rule says are actually biased, so a cell with no
// initialization bias keeps them as measurements — that is where the sweep
// savings come from.
//
// The returned Result carries the concatenated post-warmup samples, the
// usual pruned-mean point metrics (same aggregation as the fixed path), and
// a ResultCI with the per-metric interval estimates.
func runAdaptive(cell *engine.Cell[Config, *Result], rn *engine.Runner, cfg Config, _ []int64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rc := *cfg.Adaptive
	group := stats.NewGroup(rc, MetricOverhead, MetricPerceivedBW, MetricAvailability, MetricEarlyBird)

	// Each draw simulates warmup slack + one MinSamples-sized batch under a
	// fresh derived seed; MSER decides how much of the slack is really
	// warmup. maxDraws bounds the loop even if every draw were fully
	// discarded.
	slack := cfg.Warmup
	batch := rc.MinSamples
	maxDraws := (rc.MaxSamples+batch-1)/batch + 1
	baseSeed := cfg.Platform.Seed

	res := &Result{Config: cfg}
	ci := &ResultCI{}
	for draw := 0; draw < maxDraws && !group.Done(); draw++ {
		sub := cfg
		sub.Adaptive = nil
		sub.Warmup = -1 // warmup handled in-band below
		sub.Iterations = slack + batch
		sub.Platform = cfg.Platform.WithSeed(stats.DeriveSeed(baseSeed, draw))
		r, err := cell.Run(rn, sub)
		if err != nil {
			return nil, fmt.Errorf("core: adaptive draw %d: %w", draw, err)
		}
		ci.Draws++
		ci.TotalIterations += sub.Iterations

		// Warmup detection on the overhead stream (the ratio metric least
		// confounded by which partition finished last), capped at the slack.
		streams := metricSamples(cfg, r.Samples)
		drop := stats.DetectWarmup(streams[MetricOverhead], slack)
		ci.WarmupDropped += drop
		res.Samples = append(res.Samples, r.Samples[drop:]...)
		for name, xs := range streams {
			for _, x := range xs[drop:] {
				group.Add(name, x)
			}
		}
	}

	est := group.Estimates()
	ci.Overhead = est[MetricOverhead]
	ci.PerceivedBW = est[MetricPerceivedBW]
	ci.Availability = est[MetricAvailability]
	ci.EarlyBird = est[MetricEarlyBird]
	ci.Reason = group.WorstReason()
	ci.Converged = ci.Reason == stats.ReasonConverged
	res.CI = ci
	res.aggregate()
	return res, nil
}
