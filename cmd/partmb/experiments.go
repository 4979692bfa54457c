package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"partmb/internal/classic"
	"partmb/internal/cliutil"
	"partmb/internal/core"
	"partmb/internal/figures"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/sim"
	"partmb/internal/snap"
)

// platformFlag registers the -platform flag the experiment verbs share.
func platformFlag(fs *flag.FlagSet) *string {
	return fs.String("platform", "", "platform preset name or spec JSON path (default niagara-edr)")
}

// patternsVerb runs the communication-pattern benchmarks (§4.6–4.7):
// Sweep3D, Halo3D/Halo2D and incast throughput under the three threading
// modes, and Halo3D/Halo2D under persistent point-to-point too.
func patternsVerb(fs *flag.FlagSet) func(*cli) error {
	motif := fs.String("motif", "sweep3d", "pattern: sweep3d|halo3d|halo2d|incast")
	modeStr := fs.String("mode", "partitioned", "threading mode: single|multi|partitioned, or persistent (halo3d and halo2d only)")
	allModes := fs.Bool("all-modes", false, "run every mode and tabulate")
	threads := fs.Int("threads", 16, "threads per rank (sweep3d, incast)")
	tpd := fs.Int("threads-per-dim", 2, "thread cube edge (halo3d: 2->8 threads, 4->64) or square edge (halo2d)")
	sizeStr := fs.String("size", "1MiB", "bytes per thread (sweep3d, incast), per face (halo3d) or per edge (halo2d)")
	computeStr := fs.String("compute", "10ms", "per-thread compute per step")
	noiseStr := fs.String("noise", "single", "noise model")
	noisePct := fs.Float64("noise-pct", 4, "noise percent")
	px := fs.Int("px", 4, "process grid x (sweep3d)")
	py := fs.Int("py", 4, "process grid y (sweep3d)")
	haloGrid := fs.Int("halo-grid", 2, "rank torus edge (halo3d/halo2d)")
	senders := fs.Int("senders", 7, "sending ranks (incast)")
	repeats := fs.Int("repeats", 2, "pattern repetitions")
	seed := fs.Int64("seed", 42, "noise RNG seed")
	platformStr := platformFlag(fs)
	return func(c *cli) error {
		size, err := cliutil.ParseSize(*sizeStr)
		if err != nil {
			return err
		}
		compute, err := cliutil.ParseDuration(*computeStr)
		if err != nil {
			return err
		}
		nk, err := noise.ParseKind(*noiseStr)
		if err != nil {
			return err
		}
		spec, err := platform.Resolve(*platformStr)
		if err != nil {
			return err
		}
		spec = spec.WithNoise(nk, *noisePct).WithSeed(*seed)
		adaptive, err := c.eng.RunConfig()
		if err != nil {
			return err
		}
		modes := patterns.Modes()
		if !*allModes {
			m, err := patterns.ParseMode(*modeStr)
			if err != nil {
				return err
			}
			modes = []patterns.Mode{m}
		}

		rn, err := c.runner("patterns/" + *motif)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s: size=%s compute=%v noise=%s/%.0f%%", *motif, core.FormatBytes(size), compute, nk, *noisePct)
		cols := []string{"mode", "elapsed", "payload MiB", "messages", "throughput GB/s"}
		if adaptive != nil {
			cols = append(cols, "± GB/s", "n", "stop")
		}
		t := report.New(title, cols...)
		for _, mode := range modes {
			var res *patterns.Result
			switch *motif {
			case "sweep3d":
				res, err = patterns.Sweep3D.Run(rn, patterns.SweepConfig{
					Px: *px, Py: *py,
					Threads:        *threads,
					BytesPerThread: size,
					Compute:        compute,
					Repeats:        *repeats,
					Mode:           mode,
					Platform:       spec,
					Adaptive:       adaptive,
				})
			case "halo3d":
				res, err = patterns.Halo3D.Run(rn, patterns.HaloConfig{
					Nx: *haloGrid, Ny: *haloGrid, Nz: *haloGrid,
					ThreadsPerDim: *tpd,
					FaceBytes:     size,
					Compute:       compute,
					Repeats:       *repeats,
					Mode:          mode,
					Platform:      spec,
					Adaptive:      adaptive,
				})
			case "halo2d":
				res, err = patterns.Halo2D.Run(rn, patterns.Halo2DConfig{
					Nx: *haloGrid, Ny: *haloGrid,
					ThreadsPerDim: *tpd,
					EdgeBytes:     size,
					Compute:       compute,
					Repeats:       *repeats,
					Mode:          mode,
					Platform:      spec,
					Adaptive:      adaptive,
				})
			case "incast":
				res, err = patterns.Incast.Run(rn, patterns.IncastConfig{
					Senders:        *senders,
					Threads:        *threads,
					BytesPerThread: size,
					Compute:        compute,
					Repeats:        *repeats,
					Mode:           mode,
					Platform:       spec,
					Adaptive:       adaptive,
				})
			default:
				return fmt.Errorf("unknown -motif %q (want sweep3d|halo3d|halo2d|incast)", *motif)
			}
			if err != nil {
				return err
			}
			if adaptive != nil {
				tp := res.Throughput()
				var hw float64
				var n int
				reason := ""
				if res.CI != nil {
					// The throughput column is the across-draw mean; the first
					// draw's Elapsed/payload stay as the representative run.
					tp, hw, n, reason = res.CI.Mean, res.CI.HalfWidth(), res.CI.N, res.CI.Reason
				}
				t.AddF(mode.String(), res.Elapsed.String(),
					float64(res.PayloadBytes)/(1<<20), res.Messages, tp/1e9, hw/1e9, n, reason)
			} else {
				t.AddF(mode.String(), res.Elapsed.String(),
					float64(res.PayloadBytes)/(1<<20), res.Messages, res.Throughput()/1e9)
			}
		}
		return c.emit([]*report.Table{t}, *motif)
	}
}

// figuresVerb regenerates the data series behind every figure of the
// paper's evaluation (Figures 4–13). Cells run in parallel on the engine
// and are memoized by configuration hash, so cells shared between figures
// simulate once per invocation.
func figuresVerb(fs *flag.FlagSet) func(*cli) error {
	figStr := fs.String("fig", "all", "figure number (4..13) or 'all'")
	scaleStr := fs.String("scale", "quick", "sweep scale: quick|full")
	platformStr := platformFlag(fs)
	return func(c *cli) error {
		sc, err := figures.ScaleByName(*scaleStr)
		if err != nil {
			return err
		}
		rn, err := c.runner("")
		if err != nil {
			return err
		}
		env := figures.Env{Runner: rn}
		if *platformStr != "" {
			if env.Spec, err = platform.Resolve(*platformStr); err != nil {
				return err
			}
		}
		if env.Adaptive, err = c.eng.RunConfig(); err != nil {
			return err
		}
		figs := figures.Numbers()
		if *figStr != "all" {
			n, err := strconv.Atoi(*figStr)
			if err != nil {
				return fmt.Errorf("bad -fig %q", *figStr)
			}
			figs = []int{n}
		}
		for _, fig := range figs {
			c.logf("generating figure %d (%s scale)...", fig, sc.Name)
			tables, err := env.Generate(fig, sc)
			if err != nil {
				return err
			}
			if err := c.emit(tables, fmt.Sprintf("fig%02d", fig)); err != nil {
				return err
			}
		}
		return nil
	}
}

// classicVerb runs the traditional MPI micro-benchmarks (OSU/SMB style)
// plus the partitioned variants those suites lack; internal/classic's
// suite builds the tables.
func classicVerb(fs *flag.FlagSet) func(*cli) error {
	bench := fs.String("bench", "all", "benchmark: latency|bw|bibw|rate|threads|match|partlat|all")
	minStr := fs.String("min", "8", "minimum message size")
	maxStr := fs.String("max", "4MiB", "maximum message size")
	window := fs.Int("window", 16, "window size for bandwidth tests")
	iters := fs.Int("iters", 100, "iterations per point")
	platformStr := platformFlag(fs)
	return func(c *cli) error {
		min, err := cliutil.ParseSize(*minStr)
		if err != nil {
			return err
		}
		max, err := cliutil.ParseSize(*maxStr)
		if err != nil {
			return err
		}
		sizes, err := core.SizeRange(min, max)
		if err != nil {
			return err
		}
		cfg := classic.DefaultConfig()
		cfg.Iterations = *iters
		cfg.Warmup = *iters / 10
		if cfg.Adaptive, err = c.eng.RunConfig(); err != nil {
			return err
		}
		if *platformStr != "" {
			if cfg.Platform, err = platform.Resolve(*platformStr); err != nil {
				return err
			}
		}
		p := classicParams{Config: cfg, Sizes: sizes, Window: *window}
		rn, err := c.runner("")
		if err != nil {
			return err
		}
		var tables []*report.Table
		if *bench == "all" {
			tables, err = classicSuite(rn, p)
		} else {
			var t *report.Table
			t, err = classicTable(rn, *bench, p)
			tables = []*report.Table{t}
		}
		if err != nil {
			return err
		}
		return c.emit(tables, "classic")
	}
}

// adviseVerb implements the paper's developer guidance (abstract, §6):
// it sweeps candidate partition counts for a message size, compute amount
// and noise environment and recommends one, flagging socket-spillover and
// oversubscription hazards.
func adviseVerb(fs *flag.FlagSet) func(*cli) error {
	sizeStr := fs.String("size", "1MiB", "message size")
	computeStr := fs.String("compute", "10ms", "per-thread compute amount")
	noiseStr := fs.String("noise", "single", "noise model: none|single|uniform|gaussian")
	noisePct := fs.Float64("noise-pct", 4, "noise percent")
	cacheStr := fs.String("cache", "hot", "cache mode: hot|cold")
	countsStr := fs.String("counts", "1,2,4,8,16,32", "candidate partition counts")
	iters := fs.Int("iters", 6, "iterations per candidate")
	platformStr := platformFlag(fs)
	return func(c *cli) error {
		spec, err := platform.Resolve(*platformStr)
		if err != nil {
			return err
		}
		nk, err := noise.ParseKind(*noiseStr)
		if err != nil {
			return err
		}
		cm, err := memsim.ParseCacheMode(*cacheStr)
		if err != nil {
			return err
		}
		spec = spec.WithNoise(nk, *noisePct).WithCache(cm).
			WithImpl(mpi.PartMPIPCL).WithThreadMode(mpi.Multiple)
		cfg := core.Config{Partitions: 1, Iterations: *iters, Warmup: 1, Platform: spec}
		if cfg.Adaptive, err = c.eng.RunConfig(); err != nil {
			return err
		}
		if cfg.MessageBytes, err = cliutil.ParseSize(*sizeStr); err != nil {
			return err
		}
		if cfg.Compute, err = cliutil.ParseDuration(*computeStr); err != nil {
			return err
		}
		counts, err := positiveInts(*countsStr, "partition count")
		if err != nil {
			return err
		}

		rn, err := c.runner("advise")
		if err != nil {
			return err
		}
		adv, err := core.Advise(rn, cfg, counts, core.DefaultAdvisorWeights())
		if err != nil {
			return err
		}
		t := report.New(
			fmt.Sprintf("partition-count advice for %s, %v compute, %s/%.0f%% noise, %s cache",
				core.FormatBytes(cfg.MessageBytes), cfg.Compute, spec.NoiseKind, spec.NoisePercent, spec.Cache),
			"rank", "partitions", "score", "overhead", "availability", "early-bird %", "notes")
		for i, cand := range adv.Candidates {
			notes := ""
			if !cand.FitsSocket {
				notes += "spills-socket "
			}
			if cand.Oversubscribed {
				notes += "oversubscribed"
			}
			t.AddF(i+1, cand.Partitions, cand.Score, cand.Result.Overhead, cand.Result.Availability, cand.Result.EarlyBird, strings.TrimSpace(notes))
		}
		if err := t.WriteText(c.stdout); err != nil {
			return err
		}
		_, err = fmt.Fprintln(c.stdout, adv.String())
		return err
	}
}

// snapVerb reproduces the paper's SNAP projection (§4.8, Figure 13): it
// profiles the SNAP-like sweep proxy at each node count and projects the
// speedup of porting it to MPI Partitioned with the Sweep3D communication
// gain.
func snapVerb(fs *flag.FlagSet) func(*cli) error {
	nodesStr := fs.String("nodes", "2,4,8,16,32,64,128,256", "comma-separated node counts")
	gain := fs.Float64("gain", snap.SweepGain, "partitioned communication gain factor")
	computeStr := fs.String("total-compute", "400ms", "global compute per sweep step (strong-scaled)")
	sizeStr := fs.String("boundary", "512KiB", "boundary message size")
	port := fs.Bool("port", false, "additionally run the actual partitioned port and compare measured vs projected speedup")
	chunks := fs.Int("chunks", 8, "boundary partition count for the port")
	platformStr := platformFlag(fs)
	return func(c *cli) error {
		nodes, err := positiveInts(*nodesStr, "node count")
		if err != nil {
			return err
		}
		cfg := snap.DefaultConfig()
		if cfg.TotalCompute, err = cliutil.ParseDuration(*computeStr); err != nil {
			return err
		}
		if cfg.BoundaryBytes, err = cliutil.ParseSize(*sizeStr); err != nil {
			return err
		}
		if *platformStr != "" {
			if cfg.Platform, err = platform.Resolve(*platformStr); err != nil {
				return err
			}
		}
		if cfg.Adaptive, err = c.eng.RunConfig(); err != nil {
			return err
		}

		rn, err := c.runner("snap/profile")
		if err != nil {
			return err
		}
		pts, err := snap.ProfileScaling(rn, cfg, nodes)
		if err != nil {
			return err
		}
		title := fmt.Sprintf("SNAP proxy profile and projected speedup (gain %.1fx)", *gain)
		cols := []string{"nodes", "app time", "mpi time", "mpi %", "projected speedup"}
		if cfg.Adaptive != nil {
			cols = append(cols, "±", "n", "stop")
		}
		t := report.New(title, cols...)
		for _, pt := range pts {
			if cfg.Adaptive != nil {
				var hw float64
				var n int
				reason := ""
				if pt.CI != nil {
					hw, n, reason = pt.CI.HalfWidth(), pt.CI.N, pt.CI.Reason
				}
				t.AddF(pt.Nodes, pt.AppTime.String(), pt.MPITime.String(),
					100*pt.MPIFraction, snap.ProjectSpeedup(pt.MPIFraction, *gain), hw, n, reason)
			} else {
				t.AddF(pt.Nodes, pt.AppTime.String(), pt.MPITime.String(),
					100*pt.MPIFraction, snap.ProjectSpeedup(pt.MPIFraction, *gain))
			}
		}
		tables := []*report.Table{t}
		if *port {
			pt := report.New(
				fmt.Sprintf("actual partitioned port (future work realized): %d boundary chunks", *chunks),
				"nodes", "baseline", "ported", "measured speedup", "projected speedup")
			for _, n := range nodes {
				res, err := snap.ComparePort(cfg, n, *chunks)
				if err != nil {
					return err
				}
				pt.AddF(res.Nodes, res.BaselineElapsed.String(), res.PortedElapsed.String(), res.Measured(), res.Projected)
			}
			tables = append(tables, pt)
		}
		return c.emit(tables, "snapproject")
	}
}

// positiveInts parses a comma-separated list of positive integers.
func positiveInts(list, what string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s %q", what, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// modelcheckVerb prints the hardware/software model a platform spec
// resolves to, its derived first-order quantities, and closed-form
// predictions against simulated measurements — the recalibration aid
// docs/MODEL.md describes. If the two columns diverge, the model
// implementation and its documentation have drifted.
func modelcheckVerb(fs *flag.FlagSet) func(*cli) error {
	platformStr := fs.String("platform", "niagara-edr",
		fmt.Sprintf("platform preset name %v or spec JSON path", platform.PresetNames()))
	return func(c *cli) error {
		spec, err := platform.Resolve(*platformStr)
		if err != nil {
			return err
		}
		spec = spec.Resolved()
		net, machine := spec.Net, spec.Machine

		params := report.New("model parameters", "parameter", "value")
		params.AddF("platform", spec.Name)
		params.AddF("one-way latency", net.Latency.String())
		params.AddF("bandwidth GB/s", net.Bandwidth/1e9)
		params.AddF("send overhead", net.SendOverhead.String())
		params.AddF("recv overhead", net.RecvOverhead.String())
		params.AddF("eager threshold", fmt.Sprintf("%dKiB", net.EagerThreshold>>10))
		params.AddF("rendezvous setup", net.RendezvousSetup.String())
		params.AddF("sockets x cores", fmt.Sprintf("%dx%d", machine.Sockets, machine.CoresPerSocket))
		params.AddF("cross-socket penalty", machine.CrossSocketPenalty.String())
		if err := params.WriteText(c.stdout); err != nil {
			return err
		}

		// Closed form vs simulated measurement.
		cfg := classic.DefaultConfig()
		cfg.Platform = spec
		cfg.Iterations = 50
		cfg.Warmup = 5
		if cfg.Adaptive, err = c.eng.RunConfig(); err != nil {
			return err
		}
		rn, err := c.runner("modelcheck")
		if err != nil {
			return err
		}
		check := report.New("closed form vs simulated (drift here = model bug)", "quantity", "closed form", "simulated")
		lat, err := classic.Latency(rn, cfg, []int64{8})
		if err != nil {
			return err
		}
		check.AddF("8B half round trip",
			net.SmallMessageLatency().String(),
			sim.Duration(lat[0].Value*1e9).String())
		rlat, err := classic.Latency(rn, cfg, []int64{4 << 20})
		if err != nil {
			return err
		}
		check.AddF("4MiB latency (rendezvous)",
			net.RendezvousLatency(4<<20).String(),
			sim.Duration(rlat[0].Value*1e9).String())
		bw, err := classic.Bandwidth(rn, cfg, []int64{8 << 20}, 16)
		if err != nil {
			return err
		}
		check.AddF("streaming bandwidth GB/s", net.Bandwidth/1e9, bw[0].Value/1e9)
		rate, err := classic.MessageRate(rn, cfg, 8, 32)
		if err != nil {
			return err
		}
		check.AddF("small-message rate msg/s", net.MaxMessageRate(), rate)
		if err := check.WriteText(c.stdout); err != nil {
			return err
		}
		_, err = fmt.Fprintln(c.stdout, "the simulated column includes MPI-layer call costs, so small\n"+
			"fixed offsets above the closed form are expected; factors are not.")
		return err
	}
}
