package patterns

import (
	"fmt"

	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Halo2DConfig describes a 5-point 2-D halo exchange (the paper's Figure 2b
// illustration): ranks form a periodic Nx x Ny grid and exchange one
// edge-sized message with each of their four neighbours per step. Threads
// form a ThreadsPerDim^2 square inside each rank, so every edge carries
// ThreadsPerDim partitions owned by the border threads of that edge.
type Halo2DConfig struct {
	// Nx, Ny define the periodic rank grid.
	Nx, Ny int
	// ThreadsPerDim is the per-rank thread square edge; Threads() is its
	// square. Forced to 1 in Single and Persistent modes.
	ThreadsPerDim int
	// EdgeBytes is the total message size per edge; it must be divisible
	// by ThreadsPerDim.
	EdgeBytes int64
	// Compute is the per-thread compute per step.
	Compute sim.Duration
	// Repeats is the number of halo-exchange steps.
	Repeats int
	// Mode selects single / multi / partitioned / persistent communication.
	Mode Mode
	// Platform bundles the hardware, noise, cache and partitioned-impl
	// settings (nil = the paper's Niagara/EDR defaults). ThreadMode is
	// derived from Mode, not the spec.
	Platform *platform.Spec
	// Adaptive, when non-nil, estimates the motif's throughput from
	// repeated draws under derived noise seeds until the confidence
	// interval meets the target (see cells.go); nil keeps the fixed path
	// and its cache keys byte-identical.
	Adaptive *stats.RunConfig `json:",omitempty"`
}

func (c Halo2DConfig) withDefaults() Halo2DConfig {
	if c.Repeats == 0 {
		c.Repeats = 4
	}
	c.Platform = c.Platform.Resolved()
	if c.Mode == Single || c.Mode == Persistent {
		c.ThreadsPerDim = 1
	}
	return c
}

// validate checks the configuration.
func (c *Halo2DConfig) validate() error {
	if c.Nx <= 0 || c.Ny <= 0 {
		return fmt.Errorf("patterns: rank grid %dx%d invalid", c.Nx, c.Ny)
	}
	if c.ThreadsPerDim <= 0 {
		return fmt.Errorf("patterns: ThreadsPerDim must be positive")
	}
	if c.EdgeBytes <= 0 {
		return fmt.Errorf("patterns: EdgeBytes must be positive")
	}
	if c.EdgeBytes%int64(c.ThreadsPerDim) != 0 {
		return fmt.Errorf("patterns: EdgeBytes %d not divisible by %d edge partitions", c.EdgeBytes, c.ThreadsPerDim)
	}
	if c.Compute < 0 {
		return fmt.Errorf("patterns: negative Compute")
	}
	if c.Repeats <= 0 {
		return fmt.Errorf("patterns: Repeats must be positive")
	}
	return nil
}

// The four edges, paired so edge e exchanges with opposite(e) = e^1.
const (
	edgeWest = iota
	edgeEast
	edgeSouth
	edgeNorth
	numEdges
)

// edgeBorders lists, for each thread of a d×d square, the edges it borders
// and the partition it owns on each: thread (a,b) owns partition b of the
// west/east edges when a is on that border, and partition a of the
// south/north edges.
func edgeBorders(d int) [][]border {
	out := make([][]border, d*d)
	for t := range out {
		a, b := t%d, t/d
		if a == 0 {
			out[t] = append(out[t], border{edgeWest, b})
		}
		if a == d-1 {
			out[t] = append(out[t], border{edgeEast, b})
		}
		if b == 0 {
			out[t] = append(out[t], border{edgeSouth, a})
		}
		if b == d-1 {
			out[t] = append(out[t], border{edgeNorth, a})
		}
	}
	return out
}

// runHalo2D executes the motif on a simulation built on arena a: Halo3D's
// exchange over the four edges of a rank square.
func runHalo2D(a *sim.Arena, cfg Halo2DConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	proto := haloRank{mode: cfg.Mode, repeats: cfg.Repeats, faces: numEdges, faceBytes: cfg.EdgeBytes,
		parts: cfg.ThreadsPerDim, borders: edgeBorders(cfg.ThreadsPerDim), motif: "halo2d"}
	at := func(x, y int) int { return wrap(y, cfg.Ny)*cfg.Nx + wrap(x, cfg.Nx) }
	f := frame{name: "halo2d", procs: proto.motif, ranks: cfg.Nx * cfg.Ny, threads: len(proto.borders),
		mode: cfg.Mode, pf: cfg.Platform}
	return f.run(a, proto.program(cfg.Compute, func(id int) [numFaces]int {
		x, y := id%cfg.Nx, id/cfg.Nx
		return [numFaces]int{
			edgeWest: at(x-1, y), edgeEast: at(x+1, y),
			edgeSouth: at(x, y-1), edgeNorth: at(x, y+1),
		}
	}))
}
