// Package figures regenerates the data behind every figure in the paper's
// evaluation (Figures 4–13). Each figure is one row of an ordered table;
// Env.Generate runs a row and returns report tables whose rows are the
// series the paper plots. `partmb figures` renders them as text or CSV, and
// bench_test.go times each figure.
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
	"cmp"
	"context"
	"fmt"
	"slices"

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

// full approximates the paper's parameter ranges.
func full() Scale {
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

// quick shrinks the sweeps for tests and benchmarks.
func quick() Scale {
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
		return quick(), nil
	case "full":
		return full(), nil
	}
	return Scale{}, fmt.Errorf("figures: unknown scale %q (want quick|full)", name)
}

// The paper's two compute amounts.
const (
	comp10ms  = 10 * sim.Millisecond
	comp100ms = 100 * sim.Millisecond
)

// Env binds the generators to an experiment runner and a platform spec. The
// zero Env runs each call on a fresh default runner and the paper's
// Niagara/EDR platform.
type Env struct {
	// Runner executes and memoizes the cells (nil = a fresh default runner
	// per Generate or ScalingTables call, shared by that call's cells).
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

// grid evaluates cell over the rows x cols grid on the runner's worker
// pool. cost is the per-cell relative cost heuristic the engine orders
// dispatch by (nil = row-major; see engine.Runner.Sweep). Generate and
// ScalingTables resolve e.Runner before any grid runs.
func (e Env) grid(rows, cols int, cost func(r, c int) float64, cell func(r, c int) (any, error)) ([][]any, error) {
	if e.recost != nil {
		cost = e.recost(cost)
	}
	return e.Runner.Grid(context.Background(), rows, cols, cost,
		func(ctx context.Context, r, c int) (any, error) { return cell(r, c) })
}

// metricCell renders one metric-figure cell: the fixed-path value, or — on
// adaptive runs — the across-draw mean with its CI half-width as a band.
func metricCell(fixed float64, est *stats.Estimate, scale float64) any {
	if est == nil {
		return fixed
	}
	return band{est.Mean * scale, est.HalfWidth() * scale}
}

// metric is one core.Result measure, its adaptive estimate, and the unit
// its cells render in (values are divided by unit).
type metric struct {
	value func(*core.Result) float64
	est   func(*core.ResultCI) *stats.Estimate
	unit  float64
}

// The paper's four metrics (Eqs. 1–4); perceived bandwidth renders in GB/s.
var (
	overhead = metric{func(r *core.Result) float64 { return r.Overhead },
		func(ci *core.ResultCI) *stats.Estimate { return &ci.Overhead }, 1}
	perceivedGBps = metric{func(r *core.Result) float64 { return r.PerceivedBW },
		func(ci *core.ResultCI) *stats.Estimate { return &ci.PerceivedBW }, 1e9}
	availability = metric{func(r *core.Result) float64 { return r.Availability },
		func(ci *core.ResultCI) *stats.Estimate { return &ci.Availability }, 1}
	earlyBird = metric{func(r *core.Result) float64 { return r.EarlyBird },
		func(ci *core.ResultCI) *stats.Estimate { return &ci.EarlyBird }, 1}
)

// metricFigure is one of Figures 4–8 as a spec row: the two-rank
// partitioned benchmark over the MetricSizes x column grid, one grid per
// table, every cell reading one metric. The columns are the scale's
// partition counts unless series replaces them.
type metricFigure struct {
	tables []metricTable
	metric metric
	// dropOne drops the 1-partition column, meaningless for availability
	// and early-bird figures, as the paper notes.
	dropOne bool
	// series, when set, replaces the partition-count columns (Figure 7).
	series []metricCol
}

// metricTable is one table's title and settings. noise.None keeps the
// spec's noise model, and a nil cache (else &hot or &cold) its cache state.
type metricTable struct {
	title    string
	compute  sim.Duration
	noise    noise.Kind
	noisePct float64
	cache    *memsim.CacheMode
}

var hot, cold = memsim.Hot, memsim.Cold

// metricCol is one column series: a partition count and, when set, the
// noise model that replaces the table's.
type metricCol struct {
	label string
	parts int
	noise noise.Kind
}

// fig4 is "Overhead of Partitioned Point-to-Point Communication Relative to
// Point-to-Point Communication for 10ms of Compute": one table per cache
// state, overhead per partition count over the size sweep.
var fig4 = metricFigure{
	tables: []metricTable{
		{title: "Figure 4 (hot cache): overhead t_part/t_pt2pt, 10ms compute, no noise", compute: comp10ms, cache: &hot},
		{title: "Figure 4 (cold cache): overhead t_part/t_pt2pt, 10ms compute, no noise", compute: comp10ms, cache: &cold},
	},
	metric: overhead,
}

// fig5 is "Perceived Bandwidth ... with Uniform Noise and a Hot Cache for
// Different Noise and Compute Amounts": one table per (compute, noise%)
// pair, perceived bandwidth (GB/s) per partition count.
var fig5 = metricFigure{
	tables: []metricTable{
		{title: "Figure 5 (compute=10ms, uniform noise=0%): perceived bandwidth GB/s", compute: comp10ms, noise: noise.Uniform},
		{title: "Figure 5 (compute=10ms, uniform noise=4%): perceived bandwidth GB/s", compute: comp10ms, noise: noise.Uniform, noisePct: 4},
		{title: "Figure 5 (compute=100ms, uniform noise=0%): perceived bandwidth GB/s", compute: comp100ms, noise: noise.Uniform},
		{title: "Figure 5 (compute=100ms, uniform noise=4%): perceived bandwidth GB/s", compute: comp100ms, noise: noise.Uniform, noisePct: 4},
	},
	metric: perceivedGBps,
}

// fig6 is "Application Availability ... With a Hot Cache and Our Single
// Thread Delay Model With 4% Noise": one table per compute amount,
// availability per partition count.
var fig6 = metricFigure{
	tables: []metricTable{
		{title: "Figure 6 (compute=10ms): application availability, single-thread delay 4%, hot cache", compute: comp10ms, noise: noise.SingleThread, noisePct: 4},
		{title: "Figure 6 (compute=100ms): application availability, single-thread delay 4%, hot cache", compute: comp100ms, noise: noise.SingleThread, noisePct: 4},
	},
	metric:  availability,
	dropOne: true,
}

// fig7 is "The Impact of Noise Models on Application Availability": one
// column per noise model at 16 partitions, 4% noise, hot cache.
var fig7 = metricFigure{
	tables: []metricTable{
		{title: "Figure 7: application availability by noise model, 16 partitions, 4% noise, hot cache, 10ms compute", compute: comp10ms, noisePct: 4},
	},
	metric: availability,
	series: []metricCol{{"single", 16, noise.SingleThread}, {"uniform", 16, noise.Uniform}, {"gaussian", 16, noise.Gaussian}},
}

// fig8 is "Percentage of Early-Bird Communication with MPI Partitioned
// Point-to-Point Communication" (uniform noise): one table per compute
// amount.
var fig8 = metricFigure{
	tables: []metricTable{
		{title: "Figure 8 (compute=10ms): % early-bird communication, uniform 4% noise, hot cache", compute: comp10ms, noise: noise.Uniform, noisePct: 4},
		{title: "Figure 8 (compute=100ms): % early-bird communication, uniform 4% noise, hot cache", compute: comp100ms, noise: noise.Uniform, noisePct: 4},
	},
	metric:  earlyBird,
	dropOne: true,
}

// generate runs the figure's tables. Rows are the sizes at least one
// column's partition count divides; a cell whose count does not divide its
// size renders "-".
func (f metricFigure) generate(e Env, sc Scale) ([]*report.Table, error) {
	cols := f.series
	if cols == nil {
		counts := sc.PartCounts
		if f.dropOne {
			counts = withoutOne(counts)
		}
		for _, n := range counts {
			cols = append(cols, metricCol{label: fmt.Sprintf("p=%d", n), parts: n})
		}
	}
	header := []string{"size"}
	for _, c := range cols {
		header = append(header, c.label)
	}
	var sizes []int64
	for _, size := range sc.MetricSizes {
		if slices.ContainsFunc(cols, func(c metricCol) bool { return size%int64(c.parts) == 0 }) {
			sizes = append(sizes, size)
		}
	}
	// metricHint is the dominant LogGP-style term of a cell's simulation cost.
	metricHint := func(r, c int) float64 { return float64(sizes[r]) * float64(cols[c].parts) }
	var tables []*report.Table
	for _, tab := range f.tables {
		// The paper's MPIPCL setup initializes MPI_THREAD_MULTIPLE.
		spec := e.Spec.Resolved().WithThreadMode(mpi.Multiple)
		if tab.cache != nil {
			spec = spec.WithCache(*tab.cache)
		}
		cells, err := e.grid(len(sizes), len(cols), metricHint, func(r, c int) (any, error) {
			size, col := sizes[r], cols[c]
			if size%int64(col.parts) != 0 {
				return nil, nil
			}
			cfg := core.Config{
				MessageBytes: size,
				Partitions:   col.parts,
				Compute:      tab.compute,
				Iterations:   sc.Iterations,
				Warmup:       sc.Warmup,
				Platform:     spec,
				Adaptive:     e.Adaptive,
			}
			if kind := cmp.Or(col.noise, tab.noise); kind != noise.None {
				cfg.Platform = spec.WithNoise(kind, tab.noisePct)
			}
			res, err := core.RunCached(e.Runner, cfg)
			if err != nil {
				return nil, err
			}
			var est *stats.Estimate
			if res.CI != nil {
				est = f.metric.est(res.CI)
			}
			return metricCell(f.metric.value(res)/f.metric.unit, est, 1/f.metric.unit), nil
		})
		if err != nil {
			return nil, err
		}
		t := report.New(tab.title, header...)
		addGridRows(t, sizes, cells)
		tables = append(tables, t)
	}
	return tables, nil
}

// addGridRows appends one row per size with the grid's cells.
func addGridRows(t *report.Table, sizes []int64, cells [][]any) {
	for r, size := range sizes {
		row := []any{core.FormatBytes(size)}
		for _, v := range cells[r] {
			if v == nil { // a skipped cell
				v = "-"
			}
			row = append(row, v)
		}
		t.AddF(row...)
	}
}

// patternSeries is one mode column of a motif table.
type patternSeries struct {
	label string
	mode  patterns.Mode
	// threads is ThreadsPerDim for halo3d, the thread count for sweep3d.
	threads int
}

// sweepSeries is the Sweep3D series the paper plots: a single-threaded
// baseline plus multi/partitioned at two thread counts.
var sweepSeries = []patternSeries{
	{"single", patterns.Single, 1},
	{"multi-4t", patterns.Multi, 4},
	{"multi-16t", patterns.Multi, 16},
	{"part-4t", patterns.Partitioned, 4},
	{"part-16t", patterns.Partitioned, 16},
}

// figSweep generates a Sweep3D throughput table for one compute amount.
func (e Env) figSweep(sc Scale, figure string, comp sim.Duration) ([]*report.Table, error) {
	cols := []string{"bytes/thread"}
	for _, s := range sweepSeries {
		cols = append(cols, s.label)
	}
	t := report.New(
		fmt.Sprintf("%s: Sweep3D throughput GB/s, %v compute, 4%% single noise, hot cache", figure, comp),
		cols...)
	spec := e.Spec.Resolved().WithNoise(noise.SingleThread, 4)
	cells, err := e.grid(len(sc.SweepSizes), len(sweepSeries), func(r, c int) float64 {
		return float64(sc.SweepSizes[r]) * float64(sweepSeries[c].threads)
	}, func(r, col int) (any, error) {
		cfg := patterns.SweepConfig{
			Px: sc.SweepGridPx, Py: sc.SweepGridPy,
			Threads:        sweepSeries[col].threads,
			BytesPerThread: sc.SweepSizes[r],
			Compute:        comp,
			ZBlocks:        sc.SweepZBlocks,
			Octants:        sc.SweepOctants,
			Repeats:        sc.SweepRepeats,
			Mode:           sweepSeries[col].mode,
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

// figHalo generates Halo3D throughput tables for one compute amount: one
// table per thread configuration (8 threads / 4 partitions per face, and 64
// threads oversubscribed / 16 partitions per face).
func (e Env) figHalo(sc Scale, figure string, comp sim.Duration) ([]*report.Table, error) {
	var tables []*report.Table
	spec := e.Spec.Resolved().WithNoise(noise.SingleThread, 4)
	for _, tpd := range []int{2, 4} {
		threads := tpd * tpd * tpd
		t := report.New(
			fmt.Sprintf("%s (%d threads, %d partitions/face): Halo3D throughput GB/s, %v compute, 4%% single noise",
				figure, threads, tpd*tpd, comp),
			"face bytes", "single", "multi", "partitioned")
		sizes := slices.DeleteFunc(slices.Clone(sc.HaloSizes), func(size int64) bool { return size%int64(tpd*tpd) != 0 })
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

// figSNAP regenerates Figure 13, "Expected Speedup From Porting SNAP-C to
// MPI Partitioned": the mpiP-style profile of the SNAP proxy per node count
// and the Amdahl projection with the Sweep3D gain. The proxy keeps the MPI
// library's funneled threading regardless of the spec's ThreadMode.
func (e Env) figSNAP(sc Scale) ([]*report.Table, error) {
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

// figureTable lists the paper's evaluation figures in order: Figures 4–8
// are metric-grid rows, 9–12 the Sweep3D and Halo3D motifs, 13 SNAP.
var figureTable = []struct {
	n   int
	gen func(Env, Scale) ([]*report.Table, error)
}{
	{4, fig4.generate},
	{5, fig5.generate},
	{6, fig6.generate},
	{7, fig7.generate},
	{8, fig8.generate},
	{9, func(e Env, sc Scale) ([]*report.Table, error) { return e.figSweep(sc, "Figure 9", comp10ms) }},
	{10, func(e Env, sc Scale) ([]*report.Table, error) { return e.figSweep(sc, "Figure 10", comp100ms) }},
	{11, func(e Env, sc Scale) ([]*report.Table, error) { return e.figHalo(sc, "Figure 11", comp10ms) }},
	{12, func(e Env, sc Scale) ([]*report.Table, error) { return e.figHalo(sc, "Figure 12", comp100ms) }},
	{13, Env.figSNAP},
}

// Generate runs the generator for one figure number (4..13). A nil Runner
// is resolved once here, so the figure's grids and cells share it.
func (e Env) Generate(fig int, sc Scale) ([]*report.Table, error) {
	for _, f := range figureTable {
		if f.n == fig {
			e.Runner = engine.OrDefault(e.Runner)
			// Label the runner so stats, journals, and traces attribute
			// the cells to this figure.
			e.Runner.SetExperiment(fmt.Sprintf("fig%02d", fig))
			return f.gen(e, sc)
		}
	}
	return nil, fmt.Errorf("figures: no figure %d (paper evaluation figures are 4..13)", fig)
}

// Numbers lists the reproducible figure numbers.
func Numbers() []int {
	out := make([]int, len(figureTable))
	for i, f := range figureTable {
		out[i] = f.n
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
