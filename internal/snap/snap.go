// Package snap models the paper's proxy-application projection (§4.8): SNAP
// is a discrete-ordinates neutral-particle transport proxy (after PARTISN)
// whose communication is a 3-D wavefront sweep. The paper profiles SNAP-C
// with mpiP at increasing node counts — MPI send/recv grows from 1–6% of
// runtime at small scale to 20.4% at 128 nodes and 54.5% at 256 nodes — and
// projects the speedup of porting it to MPI Partitioned by applying the
// 15.1x Sweep3D communication gain to the MPI fraction.
//
// This package reproduces both ingredients: a SNAP-like sweep proxy executed
// on the simulated cluster under the mpiP-style profiler (strong scaling: a
// fixed global problem divided over more ranks), and the Amdahl projection.
package snap

import (
	"context"
	"fmt"
	"math"

	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/platform"
	"partmb/internal/prof"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// SweepGain is the communication-throughput improvement factor measured for
// MPI Partitioned on the Sweep3D pattern; the paper projects with 15.1x.
const SweepGain = 15.1

// Config describes the SNAP proxy workload.
type Config struct {
	// TotalCompute is the global compute per sweep step, strong-scaled:
	// each of P ranks computes TotalCompute/P per step.
	TotalCompute sim.Duration
	// BoundaryBytes is the per-neighbour boundary message size.
	BoundaryBytes int64
	// ZBlocks is the KBA pipeline depth per octant.
	ZBlocks int
	// Octants is the number of sweep corners (1..8).
	Octants int
	// Repeats is the number of full sweeps.
	Repeats int
	// Platform bundles the hardware models (nil = the paper's Niagara/EDR
	// defaults). The proxy keeps the library's funneled threading — the
	// spec's ThreadMode and Impl do not apply to the profiled baseline.
	Platform *platform.Spec
	// Adaptive, when non-nil, estimates each scaling point from repeated
	// draws under derived seeds until the projected speedup's confidence
	// interval is tight (see ProfileScaling). The proxy is deterministic,
	// so draws converge at MinSamples; the field exists so the whole suite
	// shares one sampling contract. Nil keeps fixed cache keys identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

// DefaultConfig returns a workload calibrated so the MPI fraction grows from
// a few percent at small node counts to dominance at 256 nodes, the shape of
// the paper's mpiP profile.
func DefaultConfig() Config {
	return Config{
		TotalCompute:  400 * sim.Millisecond,
		BoundaryBytes: 512 << 10,
		// A deep KBA pipeline keeps the wavefront-fill wait small relative
		// to the per-octant work at low node counts (the paper's 1-6%
		// regime); at 128-256 nodes the grid diagonal grows past the
		// pipeline depth and blocking MPI time dominates.
		ZBlocks: 32,
		Octants: 8,
		Repeats: 1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.TotalCompute == 0 {
		c.TotalCompute = d.TotalCompute
	}
	if c.BoundaryBytes == 0 {
		c.BoundaryBytes = d.BoundaryBytes
	}
	if c.ZBlocks == 0 {
		c.ZBlocks = d.ZBlocks
	}
	if c.Octants == 0 {
		c.Octants = d.Octants
	}
	if c.Repeats == 0 {
		c.Repeats = d.Repeats
	}
	c.Platform = c.Platform.Resolved()
	return c
}

// grid factors n into the most-square Px x Py process grid (Px <= Py).
func grid(n int) (px, py int) {
	px = int(math.Sqrt(float64(n)))
	for ; px >= 1; px-- {
		if n%px == 0 {
			return px, n / px
		}
	}
	return 1, n
}

// ProfilePoint is one row of the scaling profile.
type ProfilePoint struct {
	Nodes       int
	AppTime     sim.Duration
	MPITime     sim.Duration
	MPIFraction float64
	// Projected is the speedup from porting to MPI Partitioned, per the
	// paper's projection with SweepGain.
	Projected float64
	// CI is the confidence estimate of Projected on adaptive runs (nil on
	// the fixed path, keeping fixed-path JSON byte-identical).
	CI *stats.Estimate `json:",omitempty"`
}

// SimElapsed returns the profiled virtual application time — the
// cell-level "virtual sim time" the observability journal records (see
// internal/obs.SimTimed).
func (p ProfilePoint) SimElapsed() sim.Duration { return p.AppTime }

// SampleStats implements the observability layer's Sampled interface (see
// internal/obs). Fixed-path points report n == 0.
func (p ProfilePoint) SampleStats() (n int, relCI float64, reason string) {
	if p.CI == nil {
		return 0, 0, ""
	}
	return p.CI.N, p.CI.RelHalfWidth, p.CI.Reason
}

// Profile runs the proxy at the given node count and returns its mpiP-style
// profile point.
func Profile(cfg Config, nodes int) (ProfilePoint, error) { return profile(nil, cfg, nodes) }

// profile is Profile with its simulation built on arena a.
func profile(a *sim.Arena, cfg Config, nodes int) (ProfilePoint, error) {
	cfg = cfg.withDefaults()
	if nodes <= 0 {
		return ProfilePoint{}, fmt.Errorf("snap: nodes = %d, must be positive", nodes)
	}
	rep, err := runProxy(a, cfg, nodes)
	if err != nil {
		return ProfilePoint{}, err
	}
	f := rep.MPIFraction()
	return ProfilePoint{
		Nodes:       nodes,
		AppTime:     rep.AppTime,
		MPITime:     rep.MPITime,
		MPIFraction: f,
		Projected:   ProjectSpeedup(f, SweepGain),
	}, nil
}

// profileCell is the snap.Profile kind: one scaling point, keyed by
// (config, node count). Its adaptive form draws the proxy under seeds
// derived from the platform seed (stats.DeriveSeed) and feeds the projected
// speedup to a sampler until its interval is tight or the budget runs out;
// the value is the first draw's profile with Projected replaced by the
// sample mean and the full estimate attached.
var profileCell = engine.NewCell("snap.Profile",
	func(c Config) (Config, *stats.RunConfig, bool) {
		c = c.withDefaults()
		return c, c.Adaptive, false
	},
	func(a *sim.Arena, c Config, args []int64) (ProfilePoint, error) { return profile(a, c, int(args[0])) },
	func(cell *engine.Cell[Config, ProfilePoint], r *engine.Runner, cfg Config, args []int64) (ProfilePoint, error) {
		first, est, err := cell.Draws(r, cfg, args, func(c Config, d int) Config {
			c.Adaptive = nil
			c.Platform = c.Platform.WithSeed(stats.DeriveSeed(c.Platform.Seed, d))
			return c
		}, func(p ProfilePoint) float64 { return p.Projected })
		if err != nil {
			return ProfilePoint{}, err
		}
		first.Projected = est.Mean
		first.CI = &est
		return first, nil
	})

// ProfileScaling profiles every node count in parallel on the runner's
// worker pool, memoizing each (config, nodes) point. A nil runner uses the
// shared default runner.
func ProfileScaling(rn *engine.Runner, cfg Config, nodeCounts []int) ([]ProfilePoint, error) {
	r := engine.OrDefault(rn)
	// Profile cost grows with the node count (more ranks to simulate).
	cost := func(i int) float64 { return float64(nodeCounts[i]) }
	vals, err := r.Sweep(context.Background(), len(nodeCounts), cost, func(ctx context.Context, i int) (any, error) {
		n := nodeCounts[i]
		v, err := profileCell.Run(r, cfg, int64(n))
		if err != nil {
			return nil, fmt.Errorf("snap: %d nodes: %w", n, err)
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]ProfilePoint, len(nodeCounts))
	for i, v := range vals {
		out[i] = v.(ProfilePoint)
	}
	return out, nil
}

// ProjectSpeedup applies the paper's projection: the MPI fraction f of the
// runtime is accelerated by gain, the rest is unchanged (Amdahl).
func ProjectSpeedup(fraction, gain float64) float64 {
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("snap: MPI fraction %v outside [0,1]", fraction))
	}
	if gain <= 0 {
		panic("snap: non-positive gain")
	}
	return 1 / ((1 - fraction) + fraction/gain)
}

// runProxy executes the SNAP-like sweep on `nodes` ranks under the profiler,
// on a simulation built on arena a.
func runProxy(a *sim.Arena, cfg Config, nodes int) (prof.Report, error) {
	s := a.New()
	w := mpi.NewWorld(s, cfg.Platform.Resolved().MPIConfig(nodes))
	pf := prof.New()
	px, py := grid(nodes)
	perStep := sim.Duration(int64(cfg.TotalCompute) / int64(nodes))

	for id := 0; id < nodes; id++ {
		id := id
		comm := w.Comm(id)
		rp := pf.Rank(id)
		x, y := id%px, id/px
		s.Spawn(fmt.Sprintf("snap/rank%d", id), func(p *sim.Proc) {
			comm.Barrier(p)
			rp.Begin(p)
			step := 0
			var pending []*mpi.Request
			for rep := 0; rep < cfg.Repeats; rep++ {
				for o := 0; o < cfg.Octants; o++ {
					upX, upY, downX, downY := sweepNeighbours(o, x, y, px, py)
					pending = pending[:0]
					for zb := 0; zb < cfg.ZBlocks; zb++ {
						tag := step * 4
						if upX >= 0 {
							rp.Call(p, "MPI_Recv", func() { comm.Recv(p, upX, tag) })
						}
						if upY >= 0 {
							rp.Call(p, "MPI_Recv", func() { comm.Recv(p, upY, tag+1) })
						}
						p.Sleep(perStep)
						if downX >= 0 {
							rp.Call(p, "MPI_Isend", func() {
								pending = append(pending, comm.IsendBytes(p, downX, tag, cfg.BoundaryBytes))
							})
						}
						if downY >= 0 {
							rp.Call(p, "MPI_Isend", func() {
								pending = append(pending, comm.IsendBytes(p, downY, tag+1, cfg.BoundaryBytes))
							})
						}
						step++
					}
					rp.Call(p, "MPI_Waitall", func() { mpi.WaitAll(p, pending...) })
					mpi.FreeAll(pending...)
				}
			}
			rp.End(p)
			comm.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		return prof.Report{}, fmt.Errorf("snap: proxy simulation failed: %w", err)
	}
	return pf.Report(), nil
}
