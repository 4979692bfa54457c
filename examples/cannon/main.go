// Cannon example: Cannon's matrix-multiplication communication pattern on a
// P x P rank grid, written against the library's sub-communicator API. Each
// step circularly shifts the A blocks left along row communicators and the
// B blocks up along column communicators, then computes. Two variants run:
// classic Sendrecv shifts, and partitioned shifts where worker threads
// ready their slice of the outgoing block as soon as they finish with it.
//
// Run with: go run ./examples/cannon
package main

import (
	"fmt"
	"log"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/omp"
	"partmb/internal/sim"
)

const (
	grid      = 4              // 4x4 = 16 ranks
	blockSize = int64(8 << 20) // bytes per matrix block
	compute   = 5 * sim.Millisecond
	threads   = 8
)

// sliceCompute staggers per-thread work (real Cannon slices are imbalanced:
// block rows differ in fill); thread t finishes after ~compute*(1+t/16).
func sliceCompute(place *cluster.Placement, t int) sim.Duration {
	skewed := compute + sim.Duration(t)*compute/16
	return place.ComputeTime(t, skewed)
}

func main() {
	classic := run(false)
	partitioned := run(true)
	fmt.Printf("classic Sendrecv shifts:    %v\n", classic)
	fmt.Printf("partitioned shifts:         %v\n", partitioned)
	fmt.Printf("speedup:                    %.3fx\n", float64(classic)/float64(partitioned))
	fmt.Println("\nthe partitioned variant overlaps each thread's shift with the")
	fmt.Println("remaining threads' compute, trimming the per-step communication tail.")
}

// run executes one full Cannon rotation (grid steps) and returns the
// elapsed virtual time.
func run(usePartitioned bool) sim.Duration {
	s := sim.New()
	cfg := mpi.DefaultConfig(grid * grid)
	cfg.ThreadMode = mpi.Multiple
	cfg.PartImpl = mpi.PartNative
	w := mpi.NewWorld(s, cfg)

	var start, end sim.Time
	w.Launch("cannon", func(c *mpi.Comm, p *sim.Proc) {
		row := c.Rank() / grid
		col := c.Rank() % grid
		rowComm := c.Split(p, row, col) // local rank = column
		colComm := c.Split(p, col, row) // local rank = row
		place := cluster.Place(cfg.Machine, threads)
		c.SetPlacement(place)
		rowComm.SetPlacement(place)
		colComm.SetPlacement(place)

		left := (col - 1 + grid) % grid
		right := (col + 1) % grid
		up := (row - 1 + grid) % grid
		down := (row + 1) % grid

		var sendA, recvA, sendB, recvB *mpi.PRequest
		if usePartitioned {
			partBytes := blockSize / int64(threads)
			sendA = rowComm.PsendInit(p, left, 1, threads, partBytes)
			recvA = rowComm.PrecvInit(p, right, 1, threads, partBytes)
			sendB = colComm.PsendInit(p, up, 2, threads, partBytes)
			recvB = colComm.PrecvInit(p, down, 2, threads, partBytes)
		}
		c.Barrier(p)
		if c.Rank() == 0 {
			start = p.Now()
		}

		for step := 0; step < grid; step++ {
			if usePartitioned {
				sendA.Start(p)
				recvA.Start(p)
				sendB.Start(p)
				recvB.Start(p)
				// Worker threads: compute a slice of the block product,
				// then ready that slice of both outgoing blocks.
				omp.Region(p, threads, omp.Func(func(tp *sim.Proc, t int) {
					tp.Sleep(sliceCompute(place, t))
					sendA.Pready(tp, t)
					sendB.Pready(tp, t)
				}))
				sendA.Wait(p)
				sendB.Wait(p)
				recvA.Wait(p)
				recvB.Wait(p)
			} else {
				// Compute, join, then shift whole blocks.
				omp.Region(p, threads, omp.Func(func(tp *sim.Proc, t int) {
					tp.Sleep(sliceCompute(place, t))
				}))
				rowComm.SendrecvBytes(p, left, 1, blockSize, right, 1)
				colComm.SendrecvBytes(p, up, 2, blockSize, down, 2)
			}
		}
		c.Barrier(p)
		if p.Now() > end {
			end = p.Now()
		}
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	return end.Sub(start)
}
