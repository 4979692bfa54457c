package mpi

import (
	"fmt"
	"testing"

	"partmb/internal/sim"
)

// runPReduce reduces parts partitions from n ranks to root, every rank
// readying its partitions at the given stagger, and returns the root's
// per-partition completion times.
func runPReduce(t *testing.T, impl PartImpl, n, root, parts int, stagger sim.Duration) []sim.Time {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(n)
	cfg.PartImpl = impl
	w := NewWorld(s, cfg)
	var reduced []sim.Time
	for id := 0; id < n; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pr := c.pReduceInit(p, root, parts, 16<<10, 0)
			c.Barrier(p)
			pr.Start(p)
			for i := 0; i < parts; i++ {
				p.Sleep(stagger)
				pr.Pready(p, i)
			}
			pr.Wait(p)
			if pr.Root() {
				reduced = make([]sim.Time, parts)
				for i := range reduced {
					reduced[i] = pr.ReducedAt(i)
				}
			}
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatalf("%v preduce: %v", impl, err)
	}
	return reduced
}

func TestPReduceCompletes(t *testing.T) {
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			reduced := runPReduce(t, impl, 7, 0, 4, 100*sim.Microsecond)
			if len(reduced) != 4 {
				t.Fatalf("root reduced %d partitions, want 4", len(reduced))
			}
			for i := 1; i < 4; i++ {
				if reduced[i] <= reduced[i-1] {
					t.Fatalf("partition %d reduced at %v, not after %d at %v",
						i, reduced[i], i-1, reduced[i-1])
				}
			}
		})
	}
}

func TestPReduceNonZeroRoot(t *testing.T) {
	reduced := runPReduce(t, PartNative, 5, 2, 2, 50*sim.Microsecond)
	if len(reduced) != 2 {
		t.Fatalf("root got %d partitions", len(reduced))
	}
}

func TestPReducePipelinesPartitions(t *testing.T) {
	// With heavily staggered contributions, partition 0 must be fully
	// reduced long before the last contribution happens (~parts*stagger).
	const parts = 8
	stagger := sim.Millisecond
	reduced := runPReduce(t, PartNative, 8, 0, parts, stagger)
	lastContrib := sim.Duration(parts) * stagger
	if sim.Duration(reduced[0]) >= lastContrib {
		t.Fatalf("partition 0 reduced at %v, after the last contribution (~%v): no pipelining",
			sim.Duration(reduced[0]), lastContrib)
	}
}

func TestPReduceOpCostDelays(t *testing.T) {
	span := func(opCost sim.Duration) sim.Duration {
		s := sim.New()
		w := NewWorld(s, DefaultConfig(4))
		var last sim.Time
		for id := 0; id < 4; id++ {
			id := id
			c := w.Comm(id)
			s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
				pr := c.pReduceInit(p, 0, 2, 64<<10, opCost)
				c.Barrier(p)
				pr.Start(p)
				pr.Pready(p, 0)
				pr.Pready(p, 1)
				pr.Wait(p)
				c.Barrier(p)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(last)
	}
	free := span(0)
	costly := span(10 * sim.Nanosecond) // 10ns/B * 64KiB = 655us per combine
	if costly <= free {
		t.Fatalf("op cost had no effect: free=%v costly=%v", free, costly)
	}
}

func TestPReduceEpochRestart(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(4))
	for id := 0; id < 4; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pr := c.pReduceInit(p, 0, 2, 1<<10, 0)
			c.Barrier(p)
			for e := 0; e < 3; e++ {
				pr.Start(p)
				pr.Pready(p, 0)
				pr.Pready(p, 1)
				pr.Wait(p)
			}
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPReduceMisuse(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	for id := 0; id < 2; id++ {
		id := id
		c := w.Comm(id)
		s.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			pr := c.pReduceInit(p, 0, 2, 64, 0)
			mustPanic := func(name string, f func()) {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				f()
			}
			mustPanic("Pready before Start", func() { pr.Pready(p, 0) })
			c.Barrier(p)
			pr.Start(p)
			pr.Pready(p, 0)
			mustPanic("double Pready", func() { pr.Pready(p, 0) })
			mustPanic("out of range", func() { pr.Pready(p, 5) })
			if !pr.Root() {
				mustPanic("ReducedAt off root", func() { pr.ReducedAt(0) })
			}
			pr.Pready(p, 1)
			pr.Wait(p)
			c.Barrier(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// The runtime has no partitioned reduction; pReduce builds one in the test
// from partitioned point-to-point requests, so the tests below check how
// PsendInit/PrecvInit and WaitPartition compose into a pipelined tree.

// pReduce is a persistent partitioned reduction toward a root, the second
// half of the partitioned-collectives extension (after Holmes et al.):
// every rank's threads contribute partitions of a local vector; interior
// tree nodes combine partition i as soon as their own copy and every
// child's copy of partition i are available, then forward it upward. Early
// partitions climb the tree while late threads still compute.
type pReduce struct {
	comm  *Comm
	root  int
	parts int
	// OpCostPerByte models the reduction operator's compute cost.
	opCost sim.Duration

	fromChildren []*PRequest
	toParent     *PRequest

	active bool
	// contributed tracks local Pready calls this epoch.
	contributed []bool
	localReady  []*sim.Completion
	done        sim.WaitGroup
	partBytes   int64
}

// pReduceInit creates a persistent partitioned reduction to root over the
// communicator: parts partitions of partBytes each per rank. opCostPerByte
// is the per-byte cost of combining two partitions (0 for free). Every rank
// calls Pready per partition after Start and Wait to close the epoch.
func (c *Comm) pReduceInit(p *sim.Proc, root, parts int, partBytes int64, opCostPerByte sim.Duration) *pReduce {
	if root < 0 || root >= c.size() {
		panic(fmt.Sprintf("mpi: PReduce root %d out of range [0,%d)", root, c.size()))
	}
	if opCostPerByte < 0 {
		panic("mpi: negative reduction op cost")
	}
	seq := c.pbcastSeq
	c.pbcastSeq++
	tag := pbcastTagBase + seq

	pr := &pReduce{
		comm:      c,
		root:      root,
		parts:     parts,
		partBytes: partBytes,
		opCost:    sim.Duration(int64(opCostPerByte) * partBytes),
	}
	n := c.size()
	vrank := (c.Rank() - root + n) % n

	// The reduction tree is the broadcast tree with edges reversed.
	sendMask := 0
	if vrank != 0 {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		sendMask = mask
		parent := (vrank - mask + root) % n
		pr.toParent = c.PsendInit(p, parent, tag, parts, partBytes)
	} else {
		sendMask = nextPow2(n)
	}
	for mask := sendMask >> 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			child := (vrank + mask + root) % n
			pr.fromChildren = append(pr.fromChildren, c.PrecvInit(p, child, tag, parts, partBytes))
		}
	}
	return pr
}

// Root reports whether this rank is the reduction root.
func (pr *pReduce) Root() bool { return pr.comm.Rank() == pr.root }

// Start opens a reduction epoch. Interior ranks spawn a combiner that, for
// each partition in order, waits for the local contribution and all child
// copies, pays the operator cost, and forwards upward (or completes, at the
// root).
func (pr *pReduce) Start(p *sim.Proc) {
	if pr.active {
		panic("mpi: Start on active PReduce")
	}
	pr.active = true
	s := pr.comm.sched()
	pr.contributed = make([]bool, pr.parts)
	pr.localReady = make([]*sim.Completion, pr.parts)
	for i := range pr.localReady {
		pr.localReady[i] = new(sim.Completion)
	}
	for _, ch := range pr.fromChildren {
		ch.Start(p)
	}
	if pr.toParent != nil {
		pr.toParent.Start(p)
	}
	pr.done = sim.WaitGroup{}
	pr.done.Add(s, 1)
	children := pr.fromChildren
	s.Spawn(fmt.Sprintf("preduce/combine/rank%d", pr.comm.Rank()), func(cp *sim.Proc) {
		for i := 0; i < pr.parts; i++ {
			pr.localReady[i].Wait(cp)
			for _, ch := range children {
				ch.WaitPartition(cp, i)
			}
			// Combine own copy with each child's copy.
			if pr.opCost > 0 && len(children) > 0 {
				cp.Sleep(sim.Duration(len(children)) * pr.opCost)
			}
			if pr.toParent != nil {
				pr.toParent.Pready(cp, i)
			}
		}
		pr.done.Done(s)
	})
}

// Pready contributes this rank's partition i (each partition exactly once
// per epoch, typically from the thread that produced it).
func (pr *pReduce) Pready(p *sim.Proc, i int) {
	if !pr.active {
		panic("mpi: PReduce.Pready before Start")
	}
	if i < 0 || i >= pr.parts {
		panic(fmt.Sprintf("mpi: partition %d out of range [0,%d)", i, pr.parts))
	}
	if pr.contributed[i] {
		panic(fmt.Sprintf("mpi: partition %d contributed twice", i))
	}
	pr.contributed[i] = true
	// A local contribution costs one flag write.
	p.Sleep(pr.comm.world.cfg.NativePreadyCost)
	pr.localReady[i].Fire(pr.comm.sched())
}

// ReducedAt returns, on the root, when partition i finished combining (all
// subtree contributions in). Valid after Wait.
func (pr *pReduce) ReducedAt(i int) sim.Time {
	if !pr.Root() {
		panic("mpi: ReducedAt on non-root rank")
	}
	// The root's combine step for partition i completes when the last
	// child's partition arrived plus op cost; the latest child arrival is
	// the observable event.
	var last sim.Time
	for _, ch := range pr.fromChildren {
		if at := ch.ArrivedAt(i); at > last {
			last = at
		}
	}
	return last
}

// Wait closes the epoch on every rank: the local combiner has forwarded (or
// finished, at the root) every partition, and the upward transfer has
// locally completed.
func (pr *pReduce) Wait(p *sim.Proc) {
	if !pr.active {
		panic("mpi: Wait on inactive PReduce")
	}
	pr.done.Wait(p)
	for _, ch := range pr.fromChildren {
		ch.Wait(p)
	}
	if pr.toParent != nil {
		pr.toParent.Wait(p)
	}
	pr.active = false
}
