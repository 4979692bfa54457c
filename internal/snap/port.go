package snap

import (
	"fmt"

	"partmb/internal/mpi"
	"partmb/internal/sim"
)

// The paper projects SNAP's partitioned speedup from a profile (§4.8,
// Figure 13) and lists actually porting the application as future work.
// ComparePort performs that port on the proxy: the baseline sweeps with
// whole-boundary point-to-point messages; the ported version divides each
// z-block's work into chunks, readies each chunk's boundary partition as it
// completes, and lets the downstream rank start computing a chunk as soon
// as its partition lands — the early-bird pipelining partitioned
// communication exists for. Compute per rank is identical in both versions,
// so the measured speedup isolates the communication improvement and can be
// compared against the Amdahl projection.

// PortResult reports one baseline-vs-port comparison.
type PortResult struct {
	Nodes int
	// Chunks is the partition count per boundary message in the port.
	Chunks int
	// BaselineElapsed / PortedElapsed are end-to-end sweep times.
	BaselineElapsed sim.Duration
	PortedElapsed   sim.Duration
	// MPIFraction is the baseline's profiled MPI time share.
	MPIFraction float64
	// Projected is the paper-style Amdahl projection from MPIFraction with
	// the Sweep3D gain.
	Projected float64
}

// Measured returns the measured port speedup.
func (r *PortResult) Measured() float64 {
	return float64(r.BaselineElapsed) / float64(r.PortedElapsed)
}

// String renders a one-line summary.
func (r *PortResult) String() string {
	return fmt.Sprintf("port@%dnodes: baseline=%v ported=%v measured=%.3fx projected=%.3fx (mpi %.1f%%)",
		r.Nodes, r.BaselineElapsed, r.PortedElapsed, r.Measured(), r.Projected, 100*r.MPIFraction)
}

// ComparePort runs the proxy at the given node count in both forms.
// chunks is the per-boundary partition count of the ported version.
func ComparePort(cfg Config, nodes, chunks int) (*PortResult, error) {
	cfg = cfg.withDefaults()
	if nodes <= 0 {
		return nil, fmt.Errorf("snap: nodes = %d, must be positive", nodes)
	}
	if chunks <= 0 {
		return nil, fmt.Errorf("snap: chunks = %d, must be positive", chunks)
	}
	if cfg.BoundaryBytes%int64(chunks) != 0 {
		return nil, fmt.Errorf("snap: %d chunks must divide the %dB boundary", chunks, cfg.BoundaryBytes)
	}

	rep, err := runProxy(nil, cfg, nodes)
	if err != nil {
		return nil, err
	}
	// The aggregate AppTime sums ranks; the sweep's elapsed time is the
	// per-rank mean (all ranks span the same measured region).
	baseline := rep.AppTime / sim.Duration(nodes)

	ported, err := runPortedProxy(nil, cfg, nodes, chunks)
	if err != nil {
		return nil, err
	}
	return &PortResult{
		Nodes:           nodes,
		Chunks:          chunks,
		BaselineElapsed: baseline,
		PortedElapsed:   ported,
		MPIFraction:     rep.MPIFraction(),
		Projected:       ProjectSpeedup(rep.MPIFraction(), SweepGain),
	}, nil
}

// runPortedProxy executes the partitioned port on a simulation built on
// arena a and returns the mean per-rank elapsed time of the measured region.
func runPortedProxy(a *sim.Arena, cfg Config, nodes, chunks int) (sim.Duration, error) {
	s := a.New()
	mcfg := cfg.Platform.Resolved().MPIConfig(nodes)
	mcfg.PartImpl = mpi.PartNative
	w := mpi.NewWorld(s, mcfg)
	px, py := grid(nodes)
	perStep := sim.Duration(int64(cfg.TotalCompute) / int64(nodes))
	perChunk := perStep / sim.Duration(chunks)
	chunkBytes := cfg.BoundaryBytes / int64(chunks)

	var totalElapsed sim.Duration
	for id := 0; id < nodes; id++ {
		id := id
		comm := w.Comm(id)
		x, y := id%px, id/px
		s.Spawn(fmt.Sprintf("snapport/rank%d", id), func(p *sim.Proc) {
			// Persistent partitioned pairs per octant and axis, as in the
			// Sweep3D motif.
			var precv, psend [8][2]*mpi.PRequest
			for o := 0; o < cfg.Octants; o++ {
				upX, upY, downX, downY := sweepNeighbours(o, x, y, px, py)
				tagX, tagY := o*2+1, o*2+2
				if upX >= 0 {
					precv[o][0] = comm.PrecvInit(p, upX, tagX, chunks, chunkBytes)
				}
				if upY >= 0 {
					precv[o][1] = comm.PrecvInit(p, upY, tagY, chunks, chunkBytes)
				}
				if downX >= 0 {
					psend[o][0] = comm.PsendInit(p, downX, tagX, chunks, chunkBytes)
				}
				if downY >= 0 {
					psend[o][1] = comm.PsendInit(p, downY, tagY, chunks, chunkBytes)
				}
			}
			comm.Barrier(p)
			start := p.Now()
			for rep := 0; rep < cfg.Repeats; rep++ {
				for o := 0; o < cfg.Octants; o++ {
					for zb := 0; zb < cfg.ZBlocks; zb++ {
						for axis := 0; axis < 2; axis++ {
							if pr := precv[o][axis]; pr != nil {
								pr.Start(p)
							}
							if pr := psend[o][axis]; pr != nil {
								pr.Start(p)
							}
						}
						// Chunked wavefront: wait for a chunk's upstream
						// partitions, compute it, forward its boundary.
						for ch := 0; ch < chunks; ch++ {
							for axis := 0; axis < 2; axis++ {
								if pr := precv[o][axis]; pr != nil {
									pr.WaitPartition(p, ch)
								}
							}
							p.Sleep(perChunk)
							for axis := 0; axis < 2; axis++ {
								if pr := psend[o][axis]; pr != nil {
									pr.Pready(p, ch)
								}
							}
						}
						for axis := 0; axis < 2; axis++ {
							if pr := precv[o][axis]; pr != nil {
								pr.Wait(p)
							}
							if pr := psend[o][axis]; pr != nil {
								pr.Wait(p)
							}
						}
					}
				}
			}
			totalElapsed += p.Now().Sub(start)
			comm.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		return 0, fmt.Errorf("snap: ported proxy simulation failed: %w", err)
	}
	return totalElapsed / sim.Duration(nodes), nil
}

// sweepNeighbours returns the up/downstream ranks for octant o at grid
// position (x, y); -1 at the boundary.
func sweepNeighbours(o, x, y, px, py int) (upX, upY, downX, downY int) {
	dx, dy := 1, 1
	if o&1 != 0 {
		dx = -1
	}
	if o&2 != 0 {
		dy = -1
	}
	upX, upY, downX, downY = -1, -1, -1, -1
	if nx := x - dx; nx >= 0 && nx < px {
		upX = y*px + nx
	}
	if nx := x + dx; nx >= 0 && nx < px {
		downX = y*px + nx
	}
	if ny := y - dy; ny >= 0 && ny < py {
		upY = ny*px + x
	}
	if ny := y + dy; ny >= 0 && ny < py {
		downY = ny*px + x
	}
	return upX, upY, downX, downY
}
