// Quickstart: the smallest complete MPI Partitioned program on the
// simulated runtime — two ranks, one partitioned send of 8 partitions, four
// worker threads readying two partitions each, with real payload bytes
// verified end to end.
//
// Run with: go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/omp"
	"partmb/internal/sim"
)

func main() {
	const (
		parts     = 8
		partBytes = 4 << 10
		threads   = 4
	)

	// A deterministic simulation: two Niagara-like nodes on EDR InfiniBand.
	s := sim.New()
	cfg := mpi.DefaultConfig(2)
	w := mpi.NewWorld(s, cfg)

	// Fill the send buffer with a recognizable pattern.
	sendBuf := make([]byte, parts*partBytes)
	for i := range sendBuf {
		sendBuf[i] = byte(i % 251)
	}
	recvBuf := make([]byte, parts*partBytes)

	var rpr *mpi.PRequest

	// Rank 0: the producer. Worker threads compute, then mark their
	// partitions ready; data flows before the threads join.
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(cfg.Machine, threads))
		pr := c.PsendInit(p, 1, 99, parts, partBytes)
		pr.BindSendBuffer(sendBuf)
		c.Barrier(p)

		pr.Start(p)
		omp.Region(p, threads, omp.Func(func(tp *sim.Proc, t int) {
			// Each thread produces two partitions, with skewed compute.
			tp.Sleep(sim.Duration(1+t) * sim.Millisecond)
			pr.Pready(tp, 2*t)
			tp.Sleep(500 * sim.Microsecond)
			pr.Pready(tp, 2*t+1)
		}))
		pr.Wait(p)
		fmt.Printf("sender:   all partitions readied by t=%v\n", sim.Duration(p.Now()))
		c.Barrier(p)
	})

	// Rank 1: the consumer. Polls per-partition arrival, then completes.
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		rpr = c.PrecvInit(p, 0, 99, parts, partBytes)
		rpr.BindRecvBuffer(recvBuf)
		c.Barrier(p)

		rpr.Start(p)
		// Consume partitions as they land: a real application would start
		// computing on each one here instead of just counting.
		for next := 0; next < parts; {
			if rpr.Parrived(p, next) {
				next++
				continue
			}
			p.Sleep(200 * sim.Microsecond)
		}
		rpr.Wait(p)
		fmt.Printf("receiver: all partitions arrived by t=%v\n", sim.Duration(p.Now()))
		c.Barrier(p)
	})

	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	if !bytes.Equal(sendBuf, recvBuf) {
		log.Fatal("payload mismatch!")
	}
	fmt.Println("payload verified: received bytes identical to sent bytes")
	fmt.Println("\nper-partition arrival timeline:")
	for i := 0; i < parts; i++ {
		fmt.Printf("  partition %d arrived at t=%v\n", i, sim.Duration(rpr.ArrivedAt(i)))
	}
}
