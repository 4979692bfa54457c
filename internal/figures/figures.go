// Package figures regenerates the data behind every figure in the paper's
// evaluation (Figures 4–13). Each generator returns report tables whose rows
// are the series the paper plots; cmd/figures renders them as text or CSV,
// and bench_test.go wraps each one in a testing.B benchmark.
//
// Two scales are provided: Full approximates the paper's parameter ranges;
// Quick shrinks sweeps for CI and benchmarks.
//
// Generators run on the experiment engine: cells execute in parallel on the
// runner's worker pool and are memoized by config hash, so cells shared
// between figures (e.g. Figure 8's uniform-noise sweep also appears in
// Figure 5) simulate once per run. The simulation itself is deterministic —
// host concurrency changes wall-clock time only, never the tables.
package figures

import (
	"context"
	"fmt"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/memsim"
	"partmb/internal/mpi"
	"partmb/internal/noise"
	"partmb/internal/patterns"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/sim"
	"partmb/internal/snap"
	"partmb/internal/stats"
)

// Scale bounds the sweep ranges of the generators.
type Scale struct {
	Name string
	// Iterations / Warmup for the point-to-point metric benchmarks.
	Iterations, Warmup int
	// MetricSizes is the message-size sweep of Figures 4–8.
	MetricSizes []int64
	// PartCounts is the partition-count family of Figures 4–6/8.
	PartCounts []int
	// SweepGridPx/Py, SweepSizes, SweepRepeats, SweepZBlocks, SweepOctants
	// parameterize Figures 9–10.
	SweepGridPx, SweepGridPy int
	SweepSizes               []int64
	SweepRepeats             int
	SweepZBlocks             int
	SweepOctants             int
	// HaloGrid, HaloSizes, HaloRepeats parameterize Figures 11–12.
	HaloGrid    int
	HaloSizes   []int64
	HaloRepeats int
	// SnapNodes is the node-count axis of Figure 13.
	SnapNodes []int
}

// Full approximates the paper's parameter ranges.
func Full() Scale {
	return Scale{
		Name:        "full",
		Iterations:  10,
		Warmup:      2,
		MetricSizes: core.MessageSizes(1<<10, 64<<20),
		PartCounts:  []int{1, 2, 4, 8, 16, 32},
		SweepGridPx: 4, SweepGridPy: 4,
		SweepSizes:   core.MessageSizes(16<<10, 4<<20),
		SweepRepeats: 1,
		SweepZBlocks: 4,
		SweepOctants: 8,
		HaloGrid:     2,
		HaloSizes:    core.MessageSizes(64<<10, 16<<20),
		HaloRepeats:  3,
		SnapNodes:    []int{2, 4, 8, 16, 32, 64, 128, 256},
	}
}

// Quick shrinks the sweeps for tests and benchmarks.
func Quick() Scale {
	return Scale{
		Name:        "quick",
		Iterations:  3,
		Warmup:      1,
		MetricSizes: core.MessageSizes(32<<10, 8<<20),
		PartCounts:  []int{1, 8, 32},
		SweepGridPx: 2, SweepGridPy: 2,
		SweepSizes:   core.MessageSizes(64<<10, 1<<20),
		SweepRepeats: 1,
		SweepZBlocks: 2,
		SweepOctants: 4,
		HaloGrid:     2,
		HaloSizes:    core.MessageSizes(256<<10, 2<<20),
		HaloRepeats:  2,
		SnapNodes:    []int{2, 8, 32},
	}
}

// ScaleByName resolves a scale name; "" defaults to quick.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "", "quick":
		return Quick(), nil
	case "full":
		return Full(), nil
	}
	return Scale{}, fmt.Errorf("figures: unknown scale %q (want quick|full)", name)
}

// The paper's two compute amounts.
const (
	comp10ms  = 10 * sim.Millisecond
	comp100ms = 100 * sim.Millisecond
)

// Env binds the generators to an experiment runner and a platform spec. The
// zero Env uses the shared default runner and the paper's Niagara/EDR
// platform, so package-level calls keep working unchanged.
type Env struct {
	// Runner executes and memoizes the cells (nil = shared default runner).
	Runner *engine.Runner
	// Spec is the base platform; generators override the figure-controlled
	// axes (noise model, cache state, thread mode) per cell.
	Spec *platform.Spec
	// Adaptive, when non-nil, switches every cell to confidence-targeted
	// sampling: values render as "mean±half-width" CI bands and cells sample
	// across derived noise seeds until converged. Nil keeps the fixed-rep
	// path and every table byte-identical.
	Adaptive *stats.RunConfig

	// recost, when non-nil, replaces every grid's cost function. Only the
	// test that proves dispatch order cannot change a table sets it.
	recost func(real func(r, c int) float64) func(r, c int) float64
}

// band is a value with a symmetric error bar. Figure tables render it as
// "value±half-width", so text and CSV output carry the CI band inline where
// the plain value used to be.
type band struct{ v, hw float64 }

func (b band) String() string { return fmt.Sprintf("%.4g±%.3g", b.v, b.hw) }

func (e Env) runner() *engine.Runner { return engine.OrDefault(e.Runner) }

// spec returns the base platform with the metric benchmarks' thread mode:
// the paper's MPIPCL setup initializes MPI_THREAD_MULTIPLE.
func (e Env) metricSpec() *platform.Spec {
	return e.Spec.Resolved().WithThreadMode(mpi.Multiple)
}

// grid evaluates cell over the rows x cols grid on the runner's worker
// pool. cost is the per-cell relative cost heuristic the engine orders
// dispatch by (nil = row-major; see engine.Runner.Sweep).
func (e Env) grid(rows, cols int, cost func(r, c int) float64, cell func(r, c int) (any, error)) ([][]any, error) {
	if e.recost != nil {
		cost = e.recost(cost)
	}
	return e.runner().Grid(context.Background(), rows, cols, cost,
		func(ctx context.Context, r, c int) (any, error) { return cell(r, c) })
}

// metricCfg builds the shared point-to-point benchmark configuration.
func (e Env) metricCfg(sc Scale) core.Config {
	return core.Config{
		Iterations: sc.Iterations,
		Warmup:     sc.Warmup,
		Platform:   e.metricSpec(),
		Adaptive:   e.Adaptive,
	}
}

// metricCell renders one metric-figure cell: the fixed-path value, or — on
// adaptive runs — the across-draw mean with its CI half-width as a band.
func metricCell(fixed float64, est *stats.Estimate, scale float64) any {
	if est == nil {
		return fixed
	}
	return band{est.Mean * scale, est.HalfWidth() * scale}
}

// Fig4 regenerates "Overhead of Partitioned Point-to-Point Communication
// Relative to Point-to-Point Communication for 10ms of Compute": one table
// per cache state, overhead per partition count over the size sweep.
func (e Env) Fig4(sc Scale) ([]*report.Table, error) {
	var tables []*report.Table
	for _, cache := range []memsim.CacheMode{memsim.Hot, memsim.Cold} {
		cache := cache
		t := report.New(
			fmt.Sprintf("Figure 4 (%s cache): overhead t_part/t_pt2pt, 10ms compute, no noise", cache),
			append([]string{"size"}, partColumns(sc.PartCounts, "p=%d")...)...)
		cells, err := e.grid(len(sc.MetricSizes), len(sc.PartCounts), metricHint(sc.MetricSizes, sc.PartCounts), func(r, col int) (any, error) {
			size, parts := sc.MetricSizes[r], sc.PartCounts[col]
			if size%int64(parts) != 0 {
				return nil, nil
			}
			cfg := e.metricCfg(sc)
			cfg.MessageBytes = size
			cfg.Partitions = parts
			cfg.Compute = comp10ms
			cfg.Platform = cfg.Platform.WithCache(cache)
			res, err := core.RunCached(e.Runner, cfg)
			if err != nil {
				return nil, err
			}
			var est *stats.Estimate
			if res.CI != nil {
				est = &res.CI.Overhead
			}
			return metricCell(res.Overhead, est, 1), nil
		})
		if err != nil {
			return nil, err
		}
		addGridRows(t, sc.MetricSizes, cells)
		tables = append(tables, t)
	}
	return tables, nil
}

// metricHint is the size x partitions cost heuristic of the metric figures:
// the dominant LogGP-style terms of a cell's simulation cost.
func metricHint(sizes []int64, counts []int) func(r, c int) float64 {
	return func(r, c int) float64 { return float64(sizes[r]) * float64(counts[c]) }
}

// addGridRows appends one row per size with the grid's cells.
func addGridRows(t *report.Table, sizes []int64, cells [][]any) {
	for r, size := range sizes {
		row := []any{core.FormatBytes(size)}
		for _, v := range cells[r] {
			row = append(row, cellOrDash(v))
		}
		t.AddF(row...)
	}
}

// cellOrDash renders nil (skipped) cells as "-" for AddF.
func cellOrDash(v any) any {
	if v == nil {
		return "-"
	}
	return v
}

// Fig5 regenerates "Perceived Bandwidth ... with Uniform Noise and a Hot
// Cache for Different Noise and Compute Amounts": one table per
// (compute, noise%) cell, perceived bandwidth (GB/s) per partition count.
func (e Env) Fig5(sc Scale) ([]*report.Table, error) {
	var tables []*report.Table
	for _, comp := range []sim.Duration{comp10ms, comp100ms} {
		for _, noisePct := range []float64{0, 4} {
			comp, noisePct := comp, noisePct
			t := report.New(
				fmt.Sprintf("Figure 5 (compute=%v, uniform noise=%.0f%%): perceived bandwidth GB/s", comp, noisePct),
				append([]string{"size"}, partColumns(sc.PartCounts, "p=%d")...)...)
			cells, err := e.grid(len(sc.MetricSizes), len(sc.PartCounts), metricHint(sc.MetricSizes, sc.PartCounts), func(r, col int) (any, error) {
				size, parts := sc.MetricSizes[r], sc.PartCounts[col]
				if size%int64(parts) != 0 {
					return nil, nil
				}
				cfg := e.metricCfg(sc)
				cfg.MessageBytes = size
				cfg.Partitions = parts
				cfg.Compute = comp
				cfg.Platform = cfg.Platform.WithNoise(noise.Uniform, noisePct)
				res, err := core.RunCached(e.Runner, cfg)
				if err != nil {
					return nil, err
				}
				var est *stats.Estimate
				if res.CI != nil {
					est = &res.CI.PerceivedBW
				}
				return metricCell(res.PerceivedBW/1e9, est, 1e-9), nil
			})
			if err != nil {
				return nil, err
			}
			addGridRows(t, sc.MetricSizes, cells)
			tables = append(tables, t)
		}
	}
	return tables, nil
}

// Fig6 regenerates "Application Availability ... With a Hot Cache and Our
// Single Thread Delay Model With 4% Noise": one table per compute amount,
// availability per partition count.
func (e Env) Fig6(sc Scale) ([]*report.Table, error) {
	counts := withoutOne(sc.PartCounts)
	var tables []*report.Table
	for _, comp := range []sim.Duration{comp10ms, comp100ms} {
		comp := comp
		t := report.New(
			fmt.Sprintf("Figure 6 (compute=%v): application availability, single-thread delay 4%%, hot cache", comp),
			append([]string{"size"}, partColumns(counts, "p=%d")...)...)
		cells, err := e.grid(len(sc.MetricSizes), len(counts), metricHint(sc.MetricSizes, counts), func(r, col int) (any, error) {
			size, parts := sc.MetricSizes[r], counts[col]
			if size%int64(parts) != 0 {
				return nil, nil
			}
			cfg := e.metricCfg(sc)
			cfg.MessageBytes = size
			cfg.Partitions = parts
			cfg.Compute = comp
			cfg.Platform = cfg.Platform.WithNoise(noise.SingleThread, 4)
			res, err := core.RunCached(e.Runner, cfg)
			if err != nil {
				return nil, err
			}
			var est *stats.Estimate
			if res.CI != nil {
				est = &res.CI.Availability
			}
			return metricCell(res.Availability, est, 1), nil
		})
		if err != nil {
			return nil, err
		}
		addGridRows(t, sc.MetricSizes, cells)
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig7 regenerates "The Impact of Noise Models on Application Availability"
// (16 partitions, 4% noise, hot cache).
func (e Env) Fig7(sc Scale) ([]*report.Table, error) {
	models := []noise.Kind{noise.SingleThread, noise.Uniform, noise.Gaussian}
	t := report.New(
		"Figure 7: application availability by noise model, 16 partitions, 4% noise, hot cache, 10ms compute",
		"size", "single", "uniform", "gaussian")
	var sizes []int64
	for _, size := range sc.MetricSizes {
		if size%16 == 0 {
			sizes = append(sizes, size)
		}
	}
	cells, err := e.grid(len(sizes), len(models), func(r, c int) float64 {
		return float64(sizes[r]) * 16
	}, func(r, col int) (any, error) {
		cfg := e.metricCfg(sc)
		cfg.MessageBytes = sizes[r]
		cfg.Partitions = 16
		cfg.Compute = comp10ms
		cfg.Platform = cfg.Platform.WithNoise(models[col], 4)
		res, err := core.RunCached(e.Runner, cfg)
		if err != nil {
			return nil, err
		}
		var est *stats.Estimate
		if res.CI != nil {
			est = &res.CI.Availability
		}
		return metricCell(res.Availability, est, 1), nil
	})
	if err != nil {
		return nil, err
	}
	addGridRows(t, sizes, cells)
	return []*report.Table{t}, nil
}

// Fig8 regenerates "Percentage of Early-Bird Communication with MPI
// Partitioned Point-to-Point Communication" (uniform noise): one table per
// compute amount.
func (e Env) Fig8(sc Scale) ([]*report.Table, error) {
	counts := withoutOne(sc.PartCounts)
	var tables []*report.Table
	for _, comp := range []sim.Duration{comp10ms, comp100ms} {
		comp := comp
		t := report.New(
			fmt.Sprintf("Figure 8 (compute=%v): %% early-bird communication, uniform 4%% noise, hot cache", comp),
			append([]string{"size"}, partColumns(counts, "p=%d")...)...)
		cells, err := e.grid(len(sc.MetricSizes), len(counts), metricHint(sc.MetricSizes, counts), func(r, col int) (any, error) {
			size, parts := sc.MetricSizes[r], counts[col]
			if size%int64(parts) != 0 {
				return nil, nil
			}
			cfg := e.metricCfg(sc)
			cfg.MessageBytes = size
			cfg.Partitions = parts
			cfg.Compute = comp
			cfg.Platform = cfg.Platform.WithNoise(noise.Uniform, 4)
			res, err := core.RunCached(e.Runner, cfg)
			if err != nil {
				return nil, err
			}
			var est *stats.Estimate
			if res.CI != nil {
				est = &res.CI.EarlyBird
			}
			return metricCell(res.EarlyBird, est, 1), nil
		})
		if err != nil {
			return nil, err
		}
		addGridRows(t, sc.MetricSizes, cells)
		tables = append(tables, t)
	}
	return tables, nil
}

// patternSeries defines the Sweep3D series the paper plots: a single-threaded
// baseline plus multi/partitioned at two thread counts.
type patternSeries struct {
	label   string
	mode    patterns.Mode
	threads int
}

func sweepSeriesList() []patternSeries {
	return []patternSeries{
		{"single", patterns.Single, 1},
		{"multi-4t", patterns.Multi, 4},
		{"multi-16t", patterns.Multi, 16},
		{"part-4t", patterns.Partitioned, 4},
		{"part-16t", patterns.Partitioned, 16},
	}
}

// figSweep generates a Sweep3D throughput table for one compute amount.
func (e Env) figSweep(sc Scale, figure string, comp sim.Duration) ([]*report.Table, error) {
	series := sweepSeriesList()
	cols := []string{"bytes/thread"}
	for _, s := range series {
		cols = append(cols, s.label)
	}
	t := report.New(
		fmt.Sprintf("%s: Sweep3D throughput GB/s, %v compute, 4%% single noise, hot cache", figure, comp),
		cols...)
	spec := e.Spec.Resolved().WithNoise(noise.SingleThread, 4)
	cells, err := e.grid(len(sc.SweepSizes), len(series), func(r, c int) float64 {
		return float64(sc.SweepSizes[r]) * float64(series[c].threads)
	}, func(r, col int) (any, error) {
		cfg := patterns.SweepConfig{
			Px: sc.SweepGridPx, Py: sc.SweepGridPy,
			Threads:        series[col].threads,
			BytesPerThread: sc.SweepSizes[r],
			Compute:        comp,
			ZBlocks:        sc.SweepZBlocks,
			Octants:        sc.SweepOctants,
			Repeats:        sc.SweepRepeats,
			Mode:           series[col].mode,
			Platform:       spec,
			Adaptive:       e.Adaptive,
		}
		res, err := patterns.Sweep3D.Run(e.Runner, cfg)
		if err != nil {
			return nil, err
		}
		return metricCell(res.Throughput()/1e9, res.CI, 1e-9), nil
	})
	if err != nil {
		return nil, err
	}
	addGridRows(t, sc.SweepSizes, cells)
	return []*report.Table{t}, nil
}

// Fig9 regenerates "Sweep3D Communication Throughput For 10ms, 4% Single
// Noise with a Hot Cache".
func (e Env) Fig9(sc Scale) ([]*report.Table, error) { return e.figSweep(sc, "Figure 9", comp10ms) }

// Fig10 regenerates the 100ms-compute Sweep3D figure.
func (e Env) Fig10(sc Scale) ([]*report.Table, error) { return e.figSweep(sc, "Figure 10", comp100ms) }

// figHalo generates Halo3D throughput tables for one compute amount: one
// table per thread configuration (8 threads / 4 partitions per face, and 64
// threads oversubscribed / 16 partitions per face).
func (e Env) figHalo(sc Scale, figure string, comp sim.Duration) ([]*report.Table, error) {
	var tables []*report.Table
	spec := e.Spec.Resolved().WithNoise(noise.SingleThread, 4)
	for _, tpd := range []int{2, 4} {
		tpd := tpd
		threads := tpd * tpd * tpd
		t := report.New(
			fmt.Sprintf("%s (%d threads, %d partitions/face): Halo3D throughput GB/s, %v compute, 4%% single noise",
				figure, threads, tpd*tpd, comp),
			"face bytes", "single", "multi", "partitioned")
		var sizes []int64
		for _, size := range sc.HaloSizes {
			if size%int64(tpd*tpd) == 0 {
				sizes = append(sizes, size)
			}
		}
		modes := patterns.Modes()
		cells, err := e.grid(len(sizes), len(modes), func(r, c int) float64 {
			return float64(sizes[r]) * float64(threads)
		}, func(r, col int) (any, error) {
			cfg := patterns.HaloConfig{
				Nx: sc.HaloGrid, Ny: sc.HaloGrid, Nz: sc.HaloGrid,
				ThreadsPerDim: tpd,
				FaceBytes:     sizes[r],
				Compute:       comp,
				Repeats:       sc.HaloRepeats,
				Mode:          modes[col],
				Platform:      spec,
				Adaptive:      e.Adaptive,
			}
			res, err := patterns.Halo3D.Run(e.Runner, cfg)
			if err != nil {
				return nil, err
			}
			return metricCell(res.Throughput()/1e9, res.CI, 1e-9), nil
		})
		if err != nil {
			return nil, err
		}
		addGridRows(t, sizes, cells)
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig11 regenerates "Halo3D Communication Throughput For 10ms, 4% Single
// Noise with a Hot Cache".
func (e Env) Fig11(sc Scale) ([]*report.Table, error) { return e.figHalo(sc, "Figure 11", comp10ms) }

// Fig12 regenerates the 100ms-compute Halo3D figure.
func (e Env) Fig12(sc Scale) ([]*report.Table, error) { return e.figHalo(sc, "Figure 12", comp100ms) }

// Fig13 regenerates "Expected Speedup From Porting SNAP-C to MPI
// Partitioned": the mpiP-style profile of the SNAP proxy per node count and
// the Amdahl projection with the Sweep3D gain. The proxy keeps the MPI
// library's funneled threading regardless of the spec's ThreadMode.
func (e Env) Fig13(sc Scale) ([]*report.Table, error) {
	t := report.New(
		fmt.Sprintf("Figure 13: SNAP proxy mpiP profile and projected speedup (gain %.1fx)", snap.SweepGain),
		"nodes", "app time", "mpi time", "mpi %", "projected speedup")
	cfg := snap.DefaultConfig()
	cfg.Platform = e.Spec.Resolved()
	cfg.Adaptive = e.Adaptive
	pts, err := snap.ProfileScaling(e.Runner, cfg, sc.SnapNodes)
	if err != nil {
		return nil, err
	}
	for _, pt := range pts {
		t.AddF(pt.Nodes, pt.AppTime.String(), pt.MPITime.String(), 100*pt.MPIFraction,
			metricCell(pt.Projected, pt.CI, 1))
	}
	return []*report.Table{t}, nil
}

// Generate runs the generator for one figure number (4..13).
func (e Env) Generate(fig int, sc Scale) ([]*report.Table, error) {
	gens := map[int]func(Scale) ([]*report.Table, error){
		4: e.Fig4, 5: e.Fig5, 6: e.Fig6, 7: e.Fig7, 8: e.Fig8,
		9: e.Fig9, 10: e.Fig10, 11: e.Fig11, 12: e.Fig12, 13: e.Fig13,
	}
	g, ok := gens[fig]
	if !ok {
		return nil, fmt.Errorf("figures: no figure %d (paper evaluation figures are 4..13)", fig)
	}
	// Label the runner so stats, journals, and traces attribute the cells
	// to this figure.
	e.Runner.SetExperiment(fmt.Sprintf("fig%02d", fig))
	return g(sc)
}

// Package-level generators preserve the original API: they run on the shared
// default runner with the paper's default platform.

// Fig4 renders Figure 4 with the default environment; see Env.Fig4.
func Fig4(sc Scale) ([]*report.Table, error) { return Env{}.Fig4(sc) }

// Fig5 renders Figure 5 with the default environment; see Env.Fig5.
func Fig5(sc Scale) ([]*report.Table, error) { return Env{}.Fig5(sc) }

// Fig6 renders Figure 6 with the default environment; see Env.Fig6.
func Fig6(sc Scale) ([]*report.Table, error) { return Env{}.Fig6(sc) }

// Fig7 renders Figure 7 with the default environment; see Env.Fig7.
func Fig7(sc Scale) ([]*report.Table, error) { return Env{}.Fig7(sc) }

// Fig8 renders Figure 8 with the default environment; see Env.Fig8.
func Fig8(sc Scale) ([]*report.Table, error) { return Env{}.Fig8(sc) }

// Fig9 renders Figure 9 with the default environment; see Env.Fig9.
func Fig9(sc Scale) ([]*report.Table, error) { return Env{}.Fig9(sc) }

// Fig10 renders Figure 10 with the default environment; see Env.Fig10.
func Fig10(sc Scale) ([]*report.Table, error) { return Env{}.Fig10(sc) }

// Fig11 renders Figure 11 with the default environment; see Env.Fig11.
func Fig11(sc Scale) ([]*report.Table, error) { return Env{}.Fig11(sc) }

// Fig12 renders Figure 12 with the default environment; see Env.Fig12.
func Fig12(sc Scale) ([]*report.Table, error) { return Env{}.Fig12(sc) }

// Fig13 renders Figure 13 with the default environment; see Env.Fig13.
func Fig13(sc Scale) ([]*report.Table, error) { return Env{}.Fig13(sc) }

// Generate runs one figure with the default environment; see Env.Generate.
func Generate(fig int, sc Scale) ([]*report.Table, error) { return Env{}.Generate(fig, sc) }

// Numbers lists the reproducible figure numbers.
func Numbers() []int { return []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13} }

// partColumns renders partition-count column headers.
func partColumns(counts []int, format string) []string {
	out := make([]string, len(counts))
	for i, n := range counts {
		out[i] = fmt.Sprintf(format, n)
	}
	return out
}

// withoutOne drops the 1-partition entry (meaningless for availability and
// early-bird figures, as the paper notes).
func withoutOne(counts []int) []int {
	out := make([]int, 0, len(counts))
	for _, n := range counts {
		if n != 1 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return counts
	}
	return out
}
