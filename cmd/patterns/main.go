// Command patterns runs the communication-pattern benchmarks (the paper's
// §4.6–4.7): Sweep3D, Halo3D/Halo2D and incast throughput under the three
// threading modes.
//
// Examples:
//
//	patterns -motif sweep3d -mode partitioned -threads 16 -size 1MiB
//	patterns -motif halo3d -mode multi -threads-per-dim 4 -size 16MiB -compute 100ms
//	patterns -motif sweep3d -all-modes -size 512KiB
package main

import (
	"flag"
	"fmt"
	"os"

	"partmb/internal/cliutil"
	"partmb/internal/core"
	"partmb/internal/noise"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/report"
)

func main() {
	var (
		motif       = flag.String("motif", "sweep3d", "pattern: sweep3d|halo3d|halo2d|incast")
		modeStr     = flag.String("mode", "partitioned", "threading mode: single|multi|partitioned")
		allModes    = flag.Bool("all-modes", false, "run every mode and tabulate")
		threads     = flag.Int("threads", 16, "threads per rank (sweep3d)")
		tpd         = flag.Int("threads-per-dim", 2, "thread cube edge (halo3d: 2->8 threads, 4->64)")
		sizeStr     = flag.String("size", "1MiB", "bytes per thread (sweep3d) or per face (halo3d)")
		computeStr  = flag.String("compute", "10ms", "per-thread compute per step")
		noiseStr    = flag.String("noise", "single", "noise model")
		noisePct    = flag.Float64("noise-pct", 4, "noise percent")
		px          = flag.Int("px", 4, "process grid x (sweep3d)")
		py          = flag.Int("py", 4, "process grid y (sweep3d)")
		haloGrid    = flag.Int("halo-grid", 2, "rank torus edge (halo3d/halo2d)")
		senders     = flag.Int("senders", 7, "sending ranks (incast)")
		repeats     = flag.Int("repeats", 2, "pattern repetitions")
		seed        = flag.Int64("seed", 42, "noise RNG seed")
		platformStr = flag.String("platform", "", "platform preset name or spec JSON path (default niagara-edr)")
		eng         cliutil.EngineFlags
		out         cliutil.Output
	)
	eng.RegisterFlags(flag.CommandLine)
	out.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := out.Validate(); err != nil {
		fatal(err)
	}

	size, err := cliutil.ParseSize(*sizeStr)
	if err != nil {
		fatal(err)
	}
	compute, err := cliutil.ParseDuration(*computeStr)
	if err != nil {
		fatal(err)
	}
	nk, err := noise.ParseKind(*noiseStr)
	if err != nil {
		fatal(err)
	}
	spec := platform.Niagara()
	if *platformStr != "" {
		if spec, err = platform.Resolve(*platformStr); err != nil {
			fatal(err)
		}
	}
	spec = spec.WithNoise(nk, *noisePct).WithSeed(*seed)
	adaptive, err := eng.RunConfig()
	if err != nil {
		fatal(err)
	}

	modes := patterns.Modes()
	if !*allModes {
		m, err := patterns.ParseMode(*modeStr)
		if err != nil {
			fatal(err)
		}
		modes = []patterns.Mode{m}
	}

	rn, err := eng.Runner()
	if err != nil {
		fatal(err)
	}
	rn.SetExperiment("patterns/" + *motif)
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
			fatal(fmt.Errorf("unknown -motif %q (want sweep3d|halo3d|halo2d|incast)", *motif))
		}
		if err != nil {
			fatal(err)
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
	paths, err := out.Emit(os.Stdout, []*report.Table{t}, cliutil.IndexedName("%s_%%d.csv", *motif))
	if err != nil {
		fatal(err)
	}
	for _, path := range paths {
		fmt.Fprintln(os.Stderr, "patterns: wrote", path)
	}
	if err := eng.Finish("patterns"); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "patterns: engine: %s\n", rn.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "patterns:", err)
	os.Exit(1)
}
