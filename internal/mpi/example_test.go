package mpi_test

import (
	"fmt"

	"partmb/internal/mpi"
	"partmb/internal/sim"
)

// Example demonstrates plain point-to-point communication between two
// simulated ranks. Point-to-point messages are size-only: the simulation
// models when the bytes arrive, not what they hold.
func Example() {
	s := sim.New()
	w := mpi.NewWorld(s, mpi.DefaultConfig(2))
	const size, from = 1024, 0
	w.Launch("hello", func(c *mpi.Comm, p *sim.Proc) {
		switch c.Rank() {
		case from:
			c.SendBytes(p, 1, 0, size)
		case 1:
			c.Recv(p, from, 0)
			fmt.Printf("rank 1 received %d bytes from rank %d\n", size, from)
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	// Output: rank 1 received 1024 bytes from rank 0
}

// ExampleComm_PsendInit shows the full partitioned-communication cycle:
// init, start, per-partition Pready, wait — the MPI 4.0 model the library
// reproduces.
func ExampleComm_PsendInit() {
	s := sim.New()
	w := mpi.NewWorld(s, mpi.DefaultConfig(2))
	const parts = 4

	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 42, parts, 1024)
		c.Barrier(p)
		pr.Start(p)
		for i := 0; i < parts; i++ {
			p.Sleep(sim.Millisecond) // compute produces partition i
			pr.Pready(p, i)
		}
		pr.Wait(p)
	})
	s.Spawn("receiver", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 42, parts, 1024)
		c.Barrier(p)
		pr.Start(p)
		pr.Wait(p)
		fmt.Printf("all %d partitions arrived\n", parts)
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	// Output: all 4 partitions arrived
}

// ExampleComm_PBcastInit shows a partitioned broadcast: the root's threads
// contribute partitions over time and the tree forwards each one as it
// lands.
func ExampleComm_PBcastInit() {
	s := sim.New()
	const ranks = 4
	w := mpi.NewWorld(s, mpi.DefaultConfig(ranks))
	arrived := make([]int, ranks)
	w.Launch("pbcast", func(c *mpi.Comm, p *sim.Proc) {
		pb := c.PBcastInit(p, 0, 2, 4096)
		c.Barrier(p)
		pb.Start(p)
		if pb.Root() {
			pb.Pready(p, 0)
			p.Sleep(sim.Millisecond)
			pb.Pready(p, 1)
		}
		pb.Wait(p)
		if !pb.Root() {
			for i := 0; i < 2; i++ {
				if pb.ArrivedAt(i) > 0 {
					arrived[c.Rank()]++
				}
			}
		}
	})
	if err := s.Run(); err != nil {
		panic(err)
	}
	fmt.Println(arrived[1:])
	// Output: [2 2 2]
}
