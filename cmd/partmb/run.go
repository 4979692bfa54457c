package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"partmb/internal/core"
	"partmb/internal/figures"
	"partmb/internal/report"
	"partmb/internal/service"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

// runVerb is the §3.1 point-to-point micro-benchmark at one point or, with
// -sweep, over message sizes. Its flags fill a service.Spec and resolve
// through the service's defaults, so a flag vector and a serve request
// describe the same cells and render the same table.
func runVerb(fs *flag.FlagSet) func(*cli) error {
	var spec service.Spec
	d := service.Defaults()
	fs.BoolVar(&spec.Sweep, "sweep", false, "sweep message sizes instead of one point")
	fs.StringVar(&spec.Size, "size", d.Size, "message size (e.g. 64KiB, 4MiB)")
	fs.StringVar(&spec.Min, "min", d.Min, "sweep minimum size")
	fs.StringVar(&spec.Max, "max", d.Max, "sweep maximum size")
	fs.IntVar(&spec.Parts, "parts", d.Parts, "partition / thread count")
	fs.StringVar(&spec.Compute, "compute", d.Compute, "per-thread compute amount (e.g. 10ms)")
	fs.StringVar(&spec.Noise, "noise", d.Noise, "noise model: none|single|uniform|gaussian")
	spec.NoisePct = fs.Float64("noise-pct", *d.NoisePct, "noise amount in percent")
	fs.StringVar(&spec.Cache, "cache", d.Cache, "cache mode: hot|cold")
	fs.StringVar(&spec.Impl, "impl", d.Impl, "partitioned implementation: mpipcl|native")
	fs.IntVar(&spec.Iters, "iters", d.Iters, "measured iterations")
	spec.Warmup = fs.Int("warmup", *d.Warmup, "warmup iterations")
	fs.Int64Var(&spec.Seed, "seed", d.Seed, "noise RNG seed")
	fs.StringVar(&spec.Platform, "platform", d.Platform, "platform preset name or spec JSON path")
	traceOut := fs.String("trace", "", "write a Chrome trace of the measured iterations to this file")
	statsOut := fs.Bool("stats", false, "print per-metric sample statistics (mean/median/sd/p95)")
	return func(c *cli) error {
		spec.Samples = c.eng.Samples
		rq, err := spec.ResolveLocal()
		if err != nil {
			return err
		}
		var recorder *trace.Recorder
		if *traceOut != "" {
			recorder = new(trace.Recorder)
			rq.Base.Trace = recorder
		}
		rn, err := c.runner("partbench")
		if err != nil {
			return err
		}
		var results []*core.Result
		if rq.Sweep {
			results, err = rq.Run(rn)
		} else {
			// One cell, run as a cell rather than a one-size sweep: the
			// journal of a point holds no sweep task record.
			cfg := rq.Base
			cfg.MessageBytes = rq.Sizes[0]
			var res *core.Result
			res, err = core.RunCached(rn, cfg)
			results = []*core.Result{res}
		}
		if err != nil {
			return err
		}
		if err := c.emit([]*report.Table{rq.Table(results)}, "partbench"); err != nil {
			return err
		}
		if *statsOut {
			if err := sampleStats(results).WriteText(c.stdout); err != nil {
				return err
			}
		}
		if recorder != nil {
			if err := writeTrace(recorder, *traceOut); err != nil {
				return err
			}
			c.logf("wrote %d trace events to %s (open in chrome://tracing)", recorder.Len(), *traceOut)
		}
		return nil
	}
}

// sampleStats tabulates the distribution of each metric over the measured
// iterations of every result.
func sampleStats(results []*core.Result) *report.Table {
	st := report.New("sample statistics (per measured iteration)",
		"size", "metric", "mean", "median", "sd", "p5", "p95")
	for _, r := range results {
		add := func(metric string, xs []float64) {
			sum := stats.Summarize(xs)
			st.AddF(core.FormatBytes(r.Config.MessageBytes), metric, sum.Mean, sum.Median, sum.Stddev, sum.P05, sum.P95)
		}
		var ov, pb, av, eb []float64
		for _, s := range r.Samples {
			ov = append(ov, core.Overhead(s.TPart, s.TPt2Pt))
			pb = append(pb, core.PerceivedBandwidth(r.Config.MessageBytes, s.TPartLast)/1e9)
			av = append(av, core.Availability(s.TAfterJoin, s.TPt2Pt))
			eb = append(eb, core.EarlyBirdPct(s.TBeforeJoin, s.TPart))
		}
		add("overhead", ov)
		add("perceived GB/s", pb)
		add("availability", av)
		add("early-bird %", eb)
	}
	return st
}

// scalingVerb runs the weak/strong stencil-scaling experiment (the Collom
// et al. comparison shape) on the sharded event loop. Table content is
// virtual time and therefore shard-invariant; the wall-clock line on
// stderr is where -shards shows up.
func scalingVerb(fs *flag.FlagSet) func(*cli) error {
	var opt figures.ScalingOptions
	fs.StringVar(&opt.Stencil, "stencil", "halo3d", "stencil to scale: halo3d|sweep3d")
	ranks := fs.Int("ranks", 512, "largest rank count of the scaling axis")
	fs.IntVar(&opt.Shards, "shards", 1, "event-loop shards per simulation (results are shard-invariant)")
	traceOut := fs.String("shardtrace", "", "write a Chrome trace of shard-window execution, one lane per shard, to this file (disables the result cache)")
	fs.StringVar(&opt.Topology, "topology", "uniform", "network topology: uniform|dragonfly")
	return func(c *cli) error {
		if opt.Shards < 1 {
			return fmt.Errorf("-shards %d, must be >= 1", opt.Shards)
		}
		opt.Ranks = figures.ScalingRanks(*ranks)
		if *traceOut != "" {
			opt.ShardTrace = new(trace.Recorder)
		}
		if err := opt.Validate(); err != nil {
			return err
		}
		rn, err := c.runner("partbench-scaling")
		if err != nil {
			return err
		}
		start := time.Now()
		tables, err := figures.Env{Runner: rn}.ScalingTables(opt)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if err := c.emit(tables, "scaling"); err != nil {
			return err
		}
		if opt.ShardTrace != nil {
			if err := writeTrace(opt.ShardTrace, *traceOut); err != nil {
				return err
			}
			c.logf("wrote %d shard-window spans to %s (open in chrome://tracing)", opt.ShardTrace.Len(), *traceOut)
		}
		c.logf("%s scaling ranks=%v shards=%d topology=%s: wall %v",
			opt.Stencil, opt.Ranks, opt.Shards, opt.Topology, wall.Round(time.Millisecond))
		return nil
	}
}

// writeTrace writes rec as Chrome trace JSON to path.
func writeTrace(rec *trace.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
