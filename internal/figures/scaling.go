package figures

// This file is the many-rank scaling experiment, deliberately NOT part of
// Numbers(): the paper's figures stop at two processes and small grids,
// while these tables reproduce the *shape* of the Collom et al.
// (arXiv 2508.13370) weak/strong-scaling comparison of partitioned vs
// persistent stencil exchange, which the sharded event loop makes feasible
// at 10²–10³ ranks. Cells report virtual-time metrics only (elapsed,
// throughput), so the tables are deterministic and identical at every
// shard count — the wall-clock speedup from -shards is an operator
// observation (see `partmb scaling` and EXPERIMENTS.md), never table content.

import (
	"fmt"
	"slices"

	"partmb/internal/engine"
	"partmb/internal/netsim"
	"partmb/internal/patterns"
	"partmb/internal/report"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

// Dragonfly+ link latencies for the "dragonfly" scaling topology: intra-wing
// is a switch hop, inter-wing a global optical hop. The wing size is pinned
// to ceil(ranks/8) — the canonical 8-shard block — independent of the
// actual -shards value, so the virtual results stay shard-invariant.
const (
	scalingIntraWing = 900 * sim.Nanosecond
	scalingInterWing = 5 * sim.Microsecond
	scalingWings     = 8
)

// ScalingOptions parameterizes ScalingTables.
type ScalingOptions struct {
	// Stencil selects the motif: "halo3d" (default) or "sweep3d".
	Stencil string
	// Ranks is the ascending rank-count axis; each count is decomposed
	// onto the motif's grid with Decompose3D/Decompose2D.
	Ranks []int
	// Shards is the event-loop shard count each simulation runs on
	// (virtual results are identical at every value; see patterns).
	Shards int
	// ShardTrace, when non-nil, records shard-window spans, one lane per
	// shard, for every cell on this recorder. Traced cells bypass the
	// result cache (see patterns), so use it for one-off profiling runs
	// only.
	ShardTrace *trace.Recorder
	// Topology is "uniform" (default) or "dragonfly".
	Topology string
	// BytesPerRank is the per-rank boundary payload of the weak-scaling
	// table and the per-rank payload at the largest rank count of the
	// strong-scaling table. Rounded to a multiple of 16 so every
	// partitioned decomposition divides it.
	BytesPerRank int64
	// Compute is the per-step compute amount.
	Compute sim.Duration
	// Repeats is the number of exchange steps measured.
	Repeats int
}

func (o ScalingOptions) withDefaults() ScalingOptions {
	if o.Stencil == "" {
		o.Stencil = "halo3d"
	}
	if len(o.Ranks) == 0 {
		o.Ranks = ScalingRanks(512)
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Topology == "" {
		o.Topology = "uniform"
	}
	if o.BytesPerRank <= 0 {
		o.BytesPerRank = 16 << 10
	}
	o.BytesPerRank = round16(o.BytesPerRank)
	if o.Compute <= 0 {
		o.Compute = sim.Millisecond
	}
	if o.Repeats <= 0 {
		o.Repeats = 2
	}
	return o
}

// Validate rejects unusable options with the same fail-at-startup
// discipline as the CLI flag validators.
func (o ScalingOptions) Validate() error {
	o = o.withDefaults()
	switch o.Stencil {
	case "halo3d", "sweep3d":
	default:
		return fmt.Errorf("figures: unknown scaling stencil %q (want halo3d|sweep3d)", o.Stencil)
	}
	switch o.Topology {
	case "uniform", "dragonfly":
	default:
		return fmt.Errorf("figures: unknown scaling topology %q (want uniform|dragonfly)", o.Topology)
	}
	for _, n := range o.Ranks {
		if n < 2 {
			return fmt.Errorf("figures: scaling rank count %d, need >= 2", n)
		}
		if o.Shards > n {
			return fmt.Errorf("figures: %d shards exceed %d ranks", o.Shards, n)
		}
	}
	return nil
}

// ScalingRanks builds the default rank axis for a target size: up to four
// points ending at max, each a quarter of the next, floored at 8.
func ScalingRanks(max int) []int {
	if max < 8 {
		max = 8
	}
	var out []int
	for n := max; n >= 8 && len(out) < 4; n /= 4 {
		out = append(out, n)
	}
	slices.Reverse(out)
	return out
}

// round16 rounds b down to a positive multiple of 16, the least common
// payload granularity of every series (partitioned faces split 4 ways,
// sweep messages split across 4 threads).
func round16(b int64) int64 {
	b -= b % 16
	if b < 16 {
		b = 16
	}
	return b
}

// scalingSeriesList returns the comparison columns: for halo3d the
// Collom-shaped persistent-vs-partitioned pair over a single-threaded
// baseline; for sweep3d (no persistent mode) the threaded pair instead.
func scalingSeriesList(stencil string) []patternSeries {
	if stencil == "sweep3d" {
		return []patternSeries{
			{"single", patterns.Single, 1},
			{"multi-4t", patterns.Multi, 4},
			{"part-4t", patterns.Partitioned, 4},
		}
	}
	return []patternSeries{
		{"single", patterns.Single, 1},
		{"persistent", patterns.Persistent, 1},
		{"partitioned", patterns.Partitioned, 2},
	}
}

// scalingTopology builds the per-simulation topology for n ranks; nil keeps
// the world's uniform default.
func scalingTopology(name string, n int) netsim.Topology {
	if name != "dragonfly" {
		return nil
	}
	wing := (n + scalingWings - 1) / scalingWings
	return netsim.NewDragonflyPlus(wing, scalingIntraWing, scalingInterWing)
}

// ScalingTables generates the weak- and strong-scaling tables: one row per
// rank count, virtual elapsed time per mode, and the elapsed ratio of the
// rightmost baseline mode over partitioned (the Collom et al. speedup). A
// nil Runner is resolved once here, so both tables' cells share it.
func (e Env) ScalingTables(opt ScalingOptions) ([]*report.Table, error) {
	e.Runner = engine.OrDefault(e.Runner)
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	series := scalingSeriesList(opt.Stencil)
	maxRanks := opt.Ranks[len(opt.Ranks)-1]
	var tables []*report.Table
	for _, strong := range []bool{false, true} {
		kind, sizing := "weak", fmt.Sprintf("%d B/rank", opt.BytesPerRank)
		if strong {
			kind, sizing = "strong", fmt.Sprintf("%d B total", opt.BytesPerRank*int64(maxRanks))
		}
		cols := []string{"ranks"}
		for _, s := range series {
			cols = append(cols, s.label+" us")
		}
		base := series[len(series)-2]
		cols = append(cols, fmt.Sprintf("%s/part", base.label))
		t := report.New(fmt.Sprintf("Scaling (%s, %s): %s, %v compute, %s topology, virtual elapsed",
			opt.Stencil, kind, sizing, opt.Compute, opt.Topology), cols...)
		cells, err := e.grid(len(opt.Ranks), len(series), func(r, c int) float64 {
			return float64(opt.Ranks[r]) * float64(opt.BytesPerRank)
		}, func(r, col int) (any, error) {
			n := opt.Ranks[r]
			perRank := opt.BytesPerRank
			if strong {
				perRank = round16(opt.BytesPerRank * int64(maxRanks) / int64(n))
			}
			res, err := e.runScalingCell(opt, series[col], n, perRank)
			if err != nil {
				return nil, err
			}
			return res.Elapsed, nil
		})
		if err != nil {
			return nil, err
		}
		for r, n := range opt.Ranks {
			row := []any{n}
			for _, v := range cells[r] {
				row = append(row, float64(v.(sim.Duration))/1e3)
			}
			// Compute is positive, so every elapsed time is too.
			baseD, partD := cells[r][len(series)-2].(sim.Duration), cells[r][len(series)-1].(sim.Duration)
			row = append(row, float64(baseD)/float64(partD))
			t.AddF(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// runScalingCell runs one (series, rank count) simulation point.
func (e Env) runScalingCell(opt ScalingOptions, s patternSeries, n int, perRank int64) (*patterns.Result, error) {
	topo := scalingTopology(opt.Topology, n)
	spec := e.Spec.Resolved()
	if opt.Stencil == "sweep3d" {
		px, py := patterns.Decompose2D(n)
		return patterns.Sweep3D.Run(e.Runner, patterns.SweepConfig{
			Px: px, Py: py,
			Threads:        s.threads,
			BytesPerThread: round16(perRank / int64(s.threads)),
			Compute:        opt.Compute,
			ZBlocks:        2,
			Octants:        4,
			Repeats:        opt.Repeats,
			Mode:           s.mode,
			Platform:       spec,
			Shards:         opt.Shards,
			ShardTrace:     opt.ShardTrace,
			Topology:       topo,
		})
	}
	nx, ny, nz := patterns.Decompose3D(n)
	return patterns.Halo3D.Run(e.Runner, patterns.HaloConfig{
		Nx: nx, Ny: ny, Nz: nz,
		ThreadsPerDim: s.threads,
		FaceBytes:     perRank,
		Compute:       opt.Compute,
		Repeats:       opt.Repeats,
		Mode:          s.mode,
		Platform:      spec,
		Shards:        opt.Shards,
		ShardTrace:    opt.ShardTrace,
		Topology:      topo,
	})
}
