package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

// Partitioned collectives, after Holmes et al., "Partitioned Collective
// Communication" (ExaMPI '21) — the extension the paper lists as future
// work (§6.1). A partitioned broadcast moves a partitioned buffer down a
// binomial tree, forwarding each partition as soon as it arrives, so
// partitions contributed early by the root's threads are already in flight
// across the whole tree while late threads still compute.

// PBcast is a persistent partitioned broadcast handle for one rank.
type PBcast struct {
	comm  *Comm
	root  int
	parts int
	// fromParent is nil on the root; toChildren has one entry per child.
	fromParent *PRequest
	toChildren []*PRequest

	active bool
	// forwarded counts partitions relayed this epoch (non-leaf ranks).
	done sim.WaitGroup
}

// pbcastTagBase keeps the collective's internal partitioned pairs out of
// the low tag range applications typically use. Applications should avoid
// partitioned tags >= 4096 when mixing in partitioned collectives.
const pbcastTagBase = 1 << 12

// PBcastInit creates a persistent partitioned broadcast from root over the
// world communicator: parts partitions of partBytes bytes. Every rank must
// call it, in the same order relative to other PBcastInits. The root calls
// Pready per partition after Start; other ranks may consume partitions via
// Parrived/WaitPartition; everyone calls Wait to close the epoch.
func (c *Comm) PBcastInit(p *sim.Proc, root, parts int, partBytes int64) *PBcast {
	if root < 0 || root >= c.size() {
		panic(fmt.Sprintf("mpi: PBcast root %d out of range [0,%d)", root, c.size()))
	}
	seq := c.pbcastSeq
	c.pbcastSeq++
	tag := pbcastTagBase + seq

	pb := &PBcast{comm: c, root: root, parts: parts}
	n := c.size()
	vrank := (c.Rank() - root + n) % n

	// Binomial tree (same shape as Bcast): the receive edge is the lowest
	// set bit of vrank; children are vrank+mask for masks below that bit.
	recvMask := 0
	if vrank != 0 {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		recvMask = mask
		parent := (vrank - mask + root) % n
		pb.fromParent = c.PrecvInit(p, parent, tag, parts, partBytes)
	} else {
		recvMask = nextPow2(n)
	}
	for mask := recvMask >> 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			pb.toChildren = append(pb.toChildren, c.PsendInit(p, child, tag, parts, partBytes))
		}
	}
	return pb
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Root reports whether this rank is the broadcast root.
func (pb *PBcast) Root() bool { return pb.comm.Rank() == pb.root }

// Start opens a broadcast epoch. On non-root, non-leaf ranks it spawns a
// forwarder that relays each partition to the children as it arrives.
func (pb *PBcast) Start(p *sim.Proc) {
	if pb.active {
		panic("mpi: Start on active PBcast")
	}
	pb.active = true
	s := pb.comm.sched()
	if pb.fromParent != nil {
		pb.fromParent.Start(p)
	}
	for _, ch := range pb.toChildren {
		ch.Start(p)
	}
	pb.done = sim.WaitGroup{}
	if pb.fromParent != nil && len(pb.toChildren) > 0 {
		// Relay: wait for each partition, then ready it toward every
		// child. One forwarder proc per epoch keeps ordering simple; the
		// per-partition wait pipelines against later arrivals.
		pb.done.Add(s, 1)
		fp := pb.fromParent
		children := pb.toChildren
		s.Spawn(fmt.Sprintf("pbcast/relay/rank%d", pb.comm.Rank()), func(fp2 *sim.Proc) {
			for i := 0; i < pb.parts; i++ {
				fp.WaitPartition(fp2, i)
				for _, ch := range children {
					ch.Pready(fp2, i)
				}
			}
			pb.done.Done(s)
		})
	}
}

// Pready contributes partition i on the root (the analogue of the root's
// thread finishing its piece of the broadcast payload).
func (pb *PBcast) Pready(p *sim.Proc, i int) {
	if !pb.Root() {
		panic("mpi: PBcast.Pready on non-root rank")
	}
	for _, ch := range pb.toChildren {
		ch.Pready(p, i)
	}
}

// ArrivedAt returns partition i's arrival time on a non-root rank
// (valid once arrived).
func (pb *PBcast) ArrivedAt(i int) sim.Time {
	if pb.Root() {
		panic("mpi: PBcast.ArrivedAt on the root")
	}
	return pb.fromParent.ArrivedAt(i)
}

// Wait closes the epoch: all local receive partitions have arrived and all
// relayed/readied partitions have locally completed.
func (pb *PBcast) Wait(p *sim.Proc) {
	if !pb.active {
		panic("mpi: Wait on inactive PBcast")
	}
	if pb.fromParent != nil {
		pb.fromParent.Wait(p)
	}
	pb.done.Wait(p)
	for _, ch := range pb.toChildren {
		ch.Wait(p)
	}
	pb.active = false
}
