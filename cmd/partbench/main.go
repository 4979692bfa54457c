// Command partbench runs the point-to-point partitioned-communication
// micro-benchmarks (the paper's §3.1 metrics) at a single parameter point or
// over a message-size sweep, or — with -stencil — the many-rank weak/strong
// stencil-scaling experiment on the sharded event loop.
//
// Examples:
//
//	partbench -size 1MiB -parts 16 -compute 10ms -noise uniform -noise-pct 4
//	partbench -sweep -min 1KiB -max 64MiB -parts 32 -cache cold
//	partbench -sweep -cachedir .cellcache          # reuse cells across runs
//	partbench -stencil halo3d -ranks 512 -shards 8 # scaling tables, 8 shards
//	partbench -stencil sweep3d -ranks 128 -topology dragonfly
package main

import (
	"flag"
	"fmt"
	"os"

	"time"

	"partmb/internal/cliutil"
	"partmb/internal/core"
	"partmb/internal/figures"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/service"
	"partmb/internal/stats"
	"partmb/internal/trace"
)

func main() {
	var (
		sizeFlag    = flag.String("size", "1MiB", "message size (e.g. 64KiB, 4MiB)")
		parts       = flag.Int("parts", 16, "partition / thread count")
		computeStr  = flag.String("compute", "10ms", "per-thread compute amount (e.g. 10ms)")
		noiseStr    = flag.String("noise", "none", "noise model: none|single|uniform|gaussian")
		noisePct    = flag.Float64("noise-pct", 4, "noise amount in percent")
		cacheStr    = flag.String("cache", "hot", "cache mode: hot|cold")
		implStr     = flag.String("impl", "mpipcl", "partitioned implementation: mpipcl|native")
		iters       = flag.Int("iters", 10, "measured iterations")
		warmup      = flag.Int("warmup", 2, "warmup iterations")
		seed        = flag.Int64("seed", 42, "noise RNG seed")
		sweep       = flag.Bool("sweep", false, "sweep message sizes instead of one point")
		minStr      = flag.String("min", "1KiB", "sweep minimum size")
		maxStr      = flag.String("max", "64MiB", "sweep maximum size")
		platformStr = flag.String("platform", "", "platform preset name or spec JSON path (default niagara-edr)")
		stencilStr  = flag.String("stencil", "", "run the stencil-scaling experiment instead: halo3d|sweep3d")
		ranksFlag   = flag.Int("ranks", 512, "largest rank count of the -stencil scaling axis")
		shards      = flag.Int("shards", 1, "event-loop shards per -stencil simulation (results are shard-invariant)")
		shardTrOut  = flag.String("shardtrace", "", "write a Chrome trace of per-worker shard-window execution to this file (-stencil runs; disables the result cache)")
		topologyStr = flag.String("topology", "uniform", "network topology for -stencil runs: uniform|dragonfly")
		traceOut    = flag.String("trace", "", "write a Chrome trace of the measured iterations to this file")
		statsOut    = flag.Bool("stats", false, "print per-metric sample statistics (mean/median/sd/p95)")
		eng         cliutil.EngineFlags
		out         cliutil.Output
	)
	eng.RegisterFlags(flag.CommandLine)
	out.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := out.Validate(); err != nil {
		fatal(err)
	}
	// The shard flags fail at startup, like Output.Validate conflicts: a
	// bad shard count or topology name must never survive until after a
	// long simulation.
	topology, err := cliutil.ValidateTopology(*topologyStr)
	if err != nil {
		fatal(err)
	}
	if *stencilStr != "" {
		if err := cliutil.ValidateShards(*shards, *ranksFlag); err != nil {
			fatal(err)
		}
		runStencilScaling(stencilOpts{
			stencil:  *stencilStr,
			ranks:    *ranksFlag,
			shards:   *shards,
			traceOut: *shardTrOut,
			topology: topology,
		}, &eng, &out)
		return
	}
	if *shards != 1 {
		fatal(fmt.Errorf("-shards applies to the -stencil scaling mode (the §3.1 micro-benchmark is two ranks on one event loop)"))
	}
	if topology != "uniform" {
		fatal(fmt.Errorf("-topology applies to the -stencil scaling mode"))
	}
	if *shardTrOut != "" {
		fatal(fmt.Errorf("-shardtrace applies to the -stencil scaling mode"))
	}

	spec := platform.Niagara()
	if *platformStr != "" {
		if spec, err = platform.Resolve(*platformStr); err != nil {
			fatal(err)
		}
	}
	nk, err := noise.ParseKind(*noiseStr)
	if err != nil {
		fatal(err)
	}
	cm, err := memsim.ParseCacheMode(*cacheStr)
	if err != nil {
		fatal(err)
	}
	impl, err := mpi.ParsePartImpl(*implStr)
	if err != nil {
		fatal(err)
	}
	spec = spec.WithNoise(nk, *noisePct).WithCache(cm).WithImpl(impl).
		WithSeed(*seed).WithThreadMode(mpi.Multiple)

	cfg := core.Config{
		Partitions: *parts,
		Iterations: *iters,
		Warmup:     *warmup,
		Platform:   spec,
	}
	if cfg.Adaptive, err = eng.RunConfig(); err != nil {
		fatal(err)
	}
	if cfg.MessageBytes, err = cliutil.ParseSize(*sizeFlag); err != nil {
		fatal(err)
	}
	if cfg.Compute, err = cliutil.ParseDuration(*computeStr); err != nil {
		fatal(err)
	}
	var recorder *trace.Recorder
	if *traceOut != "" {
		recorder = new(trace.Recorder)
		cfg.Trace = recorder
	}

	rn, err := eng.Runner()
	if err != nil {
		fatal(err)
	}
	rn.SetExperiment("partbench")
	var results []*core.Result
	if *sweep {
		min, err := cliutil.ParseSize(*minStr)
		if err != nil {
			fatal(err)
		}
		max, err := cliutil.ParseSize(*maxStr)
		if err != nil {
			fatal(err)
		}
		results, err = core.SweepMessageSizes(rn, cfg, core.MessageSizes(min, max))
		if err != nil {
			fatal(err)
		}
	} else {
		// RunCached rather than Run so single points also benefit from
		// -cachedir; traced configs key to "" and run uncached anyway.
		res, err := core.RunCached(rn, cfg)
		if err != nil {
			fatal(err)
		}
		results = []*core.Result{res}
	}

	// The shared service table builder is what keeps this output
	// byte-identical to the same spec served by sweepd over HTTP.
	t := service.ResultTable(cfg, results)
	if _, err := out.Emit(os.Stdout, []*report.Table{t}, cliutil.IndexedName("partbench_%%d.csv")); err != nil {
		fatal(err)
	}
	if *statsOut {
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
		if err := st.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if recorder != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := recorder.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "partbench: wrote %d trace events to %s (open in chrome://tracing)\n", recorder.Len(), *traceOut)
	}
	if err := eng.Finish("partbench"); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "partbench: engine: %s\n", rn.Stats())
}

// stencilOpts bundles the -stencil mode's flag values.
type stencilOpts struct {
	stencil  string
	ranks    int
	shards   int
	traceOut string
	topology string
}

// runStencilScaling runs the weak/strong stencil-scaling experiment (the
// Collom et al. comparison shape) on the sharded event loop and emits its
// tables. Table content is virtual time and therefore shard-invariant; the
// wall-clock line on stderr is where -shards shows up.
func runStencilScaling(so stencilOpts, eng *cliutil.EngineFlags, out *cliutil.Output) {
	opt := figures.ScalingOptions{
		Stencil:  so.stencil,
		Ranks:    figures.ScalingRanks(so.ranks),
		Shards:   so.shards,
		Topology: so.topology,
	}
	var shardRec *trace.Recorder
	if so.traceOut != "" {
		shardRec = new(trace.Recorder)
		opt.ShardTrace = shardRec
	}
	if err := opt.Validate(); err != nil {
		fatal(err)
	}
	rn, err := eng.Runner()
	if err != nil {
		fatal(err)
	}
	rn.SetExperiment("partbench-scaling")
	start := time.Now()
	tables, err := figures.Env{Runner: rn}.ScalingTables(opt)
	if err != nil {
		fatal(err)
	}
	wall := time.Since(start)
	if _, err := out.Emit(os.Stdout, tables, cliutil.IndexedName("scaling_%%d.csv")); err != nil {
		fatal(err)
	}
	if err := eng.Finish("partbench-scaling"); err != nil {
		fatal(err)
	}
	if shardRec != nil {
		f, err := os.Create(so.traceOut)
		if err != nil {
			fatal(err)
		}
		if err := shardRec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "partbench: wrote %d shard-window spans to %s (open in chrome://tracing)\n", shardRec.Len(), so.traceOut)
	}
	fmt.Fprintf(os.Stderr, "partbench: %s scaling ranks=%v shards=%d topology=%s: wall %v\n",
		so.stencil, opt.Ranks, so.shards, so.topology, wall.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "partbench: engine: %s\n", rn.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partbench:", err)
	os.Exit(1)
}
