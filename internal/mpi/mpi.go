// Package mpi implements a message-passing runtime with MPI-like semantics
// on top of the deterministic simulation kernel: the world communicator,
// tag matching with posted/unexpected queues, blocking, nonblocking and
// persistent point-to-point operations, eager and rendezvous protocols, basic
// collectives, the three MPI threading modes with a lock-contention model,
// and — the subject of the paper — MPI 4.0 partitioned point-to-point
// communication with two interchangeable implementations (an MPIPCL-style
// layered one and a native one).
//
// Point-to-point calls and collectives model timing only and carry no
// payload; partitioned requests move real bytes end to end when buffers are
// bound to them.
package mpi

import (
	"fmt"
	"sort"
	"strings"

	"partmb/internal/cluster"
	"partmb/internal/memsim"
	"partmb/internal/netsim"
	"partmb/internal/sim"
)

// ThreadMode mirrors the MPI threading support levels that matter to the
// benchmark: with Funneled or Serialized the application guarantees that MPI
// calls never overlap, so the library takes no lock; with Multiple every
// call acquires the library lock and pays a contention penalty that grows
// with the number of waiters (cache-line bouncing on the lock word).
type ThreadMode int

const (
	// Funneled: only the main thread makes MPI calls.
	Funneled ThreadMode = iota
	// Serialized: any thread may call, but never concurrently.
	Serialized
	// Multiple: unrestricted concurrent calls; the library serializes
	// internally.
	Multiple
)

// String returns the MPI-style name of the mode.
func (m ThreadMode) String() string {
	switch m {
	case Funneled:
		return "MPI_THREAD_FUNNELED"
	case Serialized:
		return "MPI_THREAD_SERIALIZED"
	case Multiple:
		return "MPI_THREAD_MULTIPLE"
	default:
		return fmt.Sprintf("ThreadMode(%d)", int(m))
	}
}

// MarshalText renders the short lower-case mode name (used by JSON platform
// specs).
func (m ThreadMode) MarshalText() ([]byte, error) {
	switch m {
	case Funneled:
		return []byte("funneled"), nil
	case Serialized:
		return []byte("serialized"), nil
	case Multiple:
		return []byte("multiple"), nil
	}
	return nil, fmt.Errorf("mpi: cannot marshal %v", m)
}

// UnmarshalText parses a threading-level name: the short lower-case forms
// ("funneled", "serialized", "multiple") or the MPI constant names.
func (m *ThreadMode) UnmarshalText(b []byte) error {
	switch strings.ToLower(strings.TrimSpace(string(b))) {
	case "funneled", "mpi_thread_funneled":
		*m = Funneled
	case "serialized", "mpi_thread_serialized":
		*m = Serialized
	case "multiple", "mpi_thread_multiple":
		*m = Multiple
	default:
		return fmt.Errorf("mpi: unknown thread mode %q (want funneled|serialized|multiple)", b)
	}
	return nil
}

// PartImpl selects the partitioned-communication implementation.
type PartImpl int

const (
	// PartMPIPCL models the MPIPCL layered library the paper evaluates:
	// each partition becomes an internal isend/irecv pair, so Pready pays
	// full per-message MPI costs (and the library lock under Multiple).
	PartMPIPCL PartImpl = iota
	// PartNative models a native implementation: partitions are matched
	// once at initialization and Pready triggers a direct transfer without
	// per-partition matching or locking. This is the paper's future-work
	// comparison point.
	PartNative
)

// String returns "mpipcl" or "native".
func (pi PartImpl) String() string {
	switch pi {
	case PartMPIPCL:
		return "mpipcl"
	case PartNative:
		return "native"
	default:
		return fmt.Sprintf("PartImpl(%d)", int(pi))
	}
}

// ParsePartImpl parses a partitioned-implementation name.
func ParsePartImpl(s string) (PartImpl, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "mpipcl", "pccl", "layered":
		return PartMPIPCL, nil
	case "native":
		return PartNative, nil
	}
	return PartMPIPCL, fmt.Errorf("mpi: unknown partitioned impl %q (want mpipcl|native)", s)
}

// MarshalText renders "mpipcl" or "native" (used by JSON platform specs).
func (pi PartImpl) MarshalText() ([]byte, error) {
	if pi != PartMPIPCL && pi != PartNative {
		return nil, fmt.Errorf("mpi: cannot marshal %v", pi)
	}
	return []byte(pi.String()), nil
}

// UnmarshalText parses the forms accepted by ParsePartImpl.
func (pi *PartImpl) UnmarshalText(b []byte) error {
	v, err := ParsePartImpl(string(b))
	if err != nil {
		return err
	}
	*pi = v
	return nil
}

// Config describes a simulated MPI world.
type Config struct {
	// Ranks is the number of processes; each runs on its own node.
	Ranks int
	// Net holds the interconnect parameters (nil selects netsim.EDR()).
	Net *netsim.Params
	// Topology maps rank pairs to wire latency (nil selects a uniform
	// single-switch topology at Net.Latency, the paper's single-wing
	// setup).
	Topology netsim.Topology
	// Machine is the per-node hardware model (nil selects cluster.Niagara()).
	Machine *cluster.Machine
	// Mem is the memory/cache model (nil selects memsim.Default(Hot)).
	Mem *memsim.Model
	// ThreadMode is the library threading level.
	ThreadMode ThreadMode
	// PartImpl selects the partitioned implementation (default PartMPIPCL).
	PartImpl PartImpl

	// CallOverhead is the CPU cost of entering/leaving any MPI call.
	CallOverhead sim.Duration
	// MatchPerElement is the cost of inspecting one queue element during
	// matching; long unexpected queues slow receivers down.
	MatchPerElement sim.Duration
	// LockBase is the cost of an uncontended library-lock acquisition in
	// Multiple mode.
	LockBase sim.Duration
	// LockContention is the additional acquisition cost per waiter already
	// queued on the lock (models cache-line bouncing).
	LockContention sim.Duration
	// CopyBandwidth is the memcpy bandwidth for draining unexpected
	// messages into the user buffer, bytes/second.
	CopyBandwidth float64
	// PcclPartitionSetup is the extra software cost MPIPCL pays per
	// partition on Pready (internal request management) and per posted
	// internal receive on Start.
	PcclPartitionSetup sim.Duration
	// NativePreadyCost is the cost of a native Pready (flag write +
	// doorbell).
	NativePreadyCost sim.Duration
	// NativeRxOverhead is the receiver-side per-partition hardware
	// completion cost for the native implementation (no matching).
	NativeRxOverhead sim.Duration
}

// DefaultConfig returns a world configured like the paper's testbed: the
// given number of ranks on Niagara-like nodes over EDR InfiniBand, hot
// cache, Funneled threading, MPIPCL partitioned implementation.
func DefaultConfig(ranks int) Config {
	return Config{
		Ranks:              ranks,
		Net:                netsim.EDR(),
		Machine:            cluster.Niagara(),
		Mem:                memsim.Default(memsim.Hot),
		ThreadMode:         Funneled,
		PartImpl:           PartMPIPCL,
		CallOverhead:       150 * sim.Nanosecond,
		MatchPerElement:    15 * sim.Nanosecond,
		LockBase:           90 * sim.Nanosecond,
		LockContention:     180 * sim.Nanosecond,
		CopyBandwidth:      20e9,
		PcclPartitionSetup: 650 * sim.Nanosecond,
		NativePreadyCost:   120 * sim.Nanosecond,
		NativeRxOverhead:   80 * sim.Nanosecond,
	}
}

// validate checks the configuration.
func (c *Config) validate() error {
	if c.Ranks <= 0 {
		return fmt.Errorf("mpi: Ranks = %d, must be positive", c.Ranks)
	}
	if c.Net == nil || c.Machine == nil || c.Mem == nil {
		return fmt.Errorf("mpi: Net, Machine and Mem must all be set")
	}
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if err := c.Mem.Validate(); err != nil {
		return err
	}
	if c.CallOverhead < 0 || c.MatchPerElement < 0 || c.LockBase < 0 ||
		c.LockContention < 0 || c.PcclPartitionSetup < 0 ||
		c.NativePreadyCost < 0 || c.NativeRxOverhead < 0 {
		return fmt.Errorf("mpi: negative cost parameter")
	}
	if c.CopyBandwidth <= 0 {
		return fmt.Errorf("mpi: CopyBandwidth must be positive")
	}
	return nil
}

// Matching contexts keep independent traffic classes from interfering.
const (
	ctxP2P  = 0 // user point-to-point
	ctxColl = 1 // collectives
	ctxPccl = 2 // MPIPCL internal per-partition messages
)

// rankState is the per-process library state. All of it — NIC, matcher,
// lock, registry — is mutated only from sched, the rank's event-loop shard,
// which is what makes the sharded simulation race-free: there is no
// cross-shard mutable MPI state.
//
// A rank state outlives its world when the world is kept for the next one
// on the same sim.Arena (see NewWorld): reset clears it for its next world
// and keeps the storage of its matcher, registry, free list and partitioned
// requests.
type rankState struct {
	id      int
	sched   *sim.Scheduler
	nic     netsim.NIC
	matcher matcher
	lock    sim.Mutex
	// partRegistry pairs native partitioned inits: key → FIFO of pending
	// receive-side PRequests awaiting their sender. Made on first use.
	partRegistry map[partKey][]*PRequest
	// records is the message-record free list of sched, shared by every
	// rank on it (see inbound).
	records *recordList
	// freeReqs holds the requests of this rank's finished blocking calls
	// and freed nonblocking ones (see takeReq).
	freeReqs []*Request
	// preqs and persist are the partitioned and persistent requests inits
	// on this rank made, handed out again by the inits of the next world
	// built from this state.
	preqs   remade[PRequest]
	persist remade[Request]
}

// remade is the list of objects of one kind a rank's inits made, in the
// order they made them: the first used belong to the current world, and the
// rest, made by an earlier world built from the same rank state, go to the
// next inits before anything new is made. Inits overwrite every field, so
// only storage carries over.
type remade[T any] struct {
	all  []*T
	used int
}

// take returns the next object for an init.
func (r *remade[T]) take() *T {
	if r.used == len(r.all) {
		r.all = append(r.all, new(T))
	}
	r.used++
	return r.all[r.used-1]
}

// reset readies the rank state for rank id of a world on s: everything the
// previous world left in it is dropped — queued receives and messages,
// registry entries, NIC occupancy — while the storage stays. A new state
// takes the same path.
func (st *rankState) reset(id int, s *sim.Scheduler, cfg *Config, records *recordList) {
	st.id, st.sched, st.records = id, s, records
	st.nic = *netsim.NewNIC(cfg.Net)
	st.matcher.reset()
	clear(st.partRegistry)
	st.preqs.used, st.persist.used = 0, 0
}

// recordList is the free list of message records of one scheduler: the
// world's, or one shard's. A sender takes from its own scheduler's list and
// a receiver returns to its own, so each list is only touched from the
// shard it belongs to.
type recordList struct {
	free []*inbound
	// max caps the list at recordsPerRank times the ranks on the scheduler.
	max int
}

// trim drops the records beyond the list's cap.
func (l *recordList) trim() {
	if len(l.free) > l.max {
		clear(l.free[l.max:])
		l.free = l.free[:l.max]
	}
}

// deal pools the records the last world left on the lists and deals them
// back out like cards, one to each list in turn, skipping lists at their
// cap, and drops what no list has room for. Records go back to the
// receiver's list, so one-way traffic leaves them all on the receiving
// shards, while the next world's senders need them on theirs.
func deal(lists []recordList) {
	pool := &lists[0]
	top := 0
	for i := range lists {
		l := &lists[i]
		top = max(top, l.max)
		if i > 0 {
			pool.free = append(pool.free, l.free...)
			clear(l.free)
			l.free = l.free[:0]
		}
	}
	// After k rounds a list holds min(max, k) records. Find the last full
	// round k; the r records left go to the first r lists still open.
	dealt := func(k int) int {
		n := 0
		for i := range lists {
			n += min(lists[i].max, k)
		}
		return n
	}
	total := len(pool.free)
	k := sort.Search(top+1, func(k int) bool { return dealt(k) > total }) - 1
	r := total - dealt(k)
	share := func(l *recordList) int {
		n := min(l.max, k)
		if l.max > k && r > 0 {
			n++
			r--
		}
		return n
	}
	kept := share(pool)
	rest := pool.free[kept:]
	for i := range lists[1:] {
		l := &lists[1+i]
		n := share(l)
		l.free = append(l.free, rest[:n]...)
		rest = rest[n:]
	}
	clear(pool.free[kept:])
	pool.free = pool.free[:kept]
}

// partKey pairs native partitioned requests in the receiver's registry.
type partKey struct {
	src, tag int
}

// World is a set of simulated MPI ranks sharing an interconnect.
type World struct {
	s   *sim.Scheduler
	cfg Config

	// ranks are the rank states; any beyond len(ranks), up to its capacity,
	// are left from an earlier, larger world for a later one (see reset).
	ranks []*rankState
	// comms caches World.Comm's handles, with the same rule for those
	// beyond len(comms).
	comms []*Comm
	// single is the one-thread placement every handle starts with.
	single *cluster.Placement

	// group is non-nil for sharded worlds (NewShardedWorld): ranks are
	// spread over the group's shards and cross-rank events route through
	// sim.Defer. Nil for sequential worlds.
	group *sim.ShardGroup
	// congested is cfg.Topology when it also models link occupancy.
	congested netsim.Congested
	// records holds one message-record free list per scheduler: one in a
	// sequential world, one per shard in a sharded one.
	records []recordList
}

// NewWorld builds a world on the scheduler. Nil Config sub-models are filled
// with defaults; an invalid configuration panics (construction-time bug).
//
// The world is kept for the next scheduler built from s's sim.Arena (see
// sim.Scheduler.Keep): when the simulation drains cleanly, the next NewWorld
// on that arena is this World, cleared for its new configuration, with the
// rank states, communicator handles, message records, free requests and
// partitioned requests of this one — so a cell's world allocates only what
// no earlier world on its arena had. Every handle the world gave out
// (communicators, endpoints, requests, partitioned requests) is therefore
// valid only until the next world is built on the arena. Without an arena,
// or after a simulation that deadlocked or panicked, the world is built
// from nothing, through the same reset.
func NewWorld(s *sim.Scheduler, cfg Config) *World {
	if cfg.Net == nil {
		cfg.Net = netsim.EDR()
	}
	if cfg.Machine == nil {
		cfg.Machine = cluster.Niagara()
	}
	if cfg.Mem == nil {
		cfg.Mem = memsim.Default(memsim.Hot)
	}
	if cfg.Topology == nil {
		cfg.Topology = netsim.Uniform{L: cfg.Net.Latency}
	}
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	w, _ := s.Kept().(*World)
	if w == nil {
		w = new(World)
	}
	w.reset(s, cfg)
	s.Keep(w)
	return w
}

// reset readies w, new or kept from the previous simulation on the arena,
// for a sequential world of cfg on s. The rank states and communicator
// handles are reset in place, by index, and those beyond cfg.Ranks are kept
// for a later, larger world; the record free list keeps at most what the
// new world's cap allows.
func (w *World) reset(s *sim.Scheduler, cfg Config) {
	w.s, w.cfg, w.group = s, cfg, nil
	w.congested, _ = cfg.Topology.(netsim.Congested)
	w.single = cluster.Place(cfg.Machine, 1)

	w.records = extend(w.records, 1)
	l := &w.records[0]
	l.max = recordsPerRank * cfg.Ranks
	l.trim()

	w.ranks = extend(w.ranks, cfg.Ranks)
	for i, st := range w.ranks {
		if st == nil {
			st = new(rankState)
			w.ranks[i] = st
		}
		st.reset(i, s, &w.cfg, l)
	}
	w.comms = extend(w.comms, cfg.Ranks)
	for i, c := range w.comms {
		if c != nil {
			c.reset(w, i)
		}
	}
}

// extend returns xs with length n, keeping the elements it holds up to its
// capacity: a shorter xs[:n] leaves the rest in place for a later extend.
func extend[T any](xs []T, n int) []T {
	xs = xs[:cap(xs)]
	if len(xs) < n {
		xs = append(xs, make([]T, n-len(xs))...)
	}
	return xs[:n]
}

// NewShardedWorld builds a world whose ranks are partitioned across the
// shards of g: rank i's library state lives on shard shardOf(i), and every
// cross-rank interaction that may cross shards routes through the group's
// conservative lookahead. With a one-shard group the world is exactly a
// sequential NewWorld world (byte-identical event order).
//
// The world is NewWorld's on shard 0, so a group built from a sim.Arena
// takes the world the arena kept and keeps this one, as NewWorld does. The
// records the last world left on its per-shard free lists are dealt back
// out, up to recordsPerRank per rank on each shard.
//
// Restrictions in multi-shard worlds: the group's lookahead must not exceed
// the minimum cross-shard wire latency of the topology
// (netsim.MinCrossLatency), and all Comm handles must be created before the
// group runs.
func NewShardedWorld(g *sim.ShardGroup, cfg Config, shardOf func(rank int) int) (*World, error) {
	w := NewWorld(g.Shard(0), cfg)
	cfg = w.cfg // defaults filled in
	if g.Shards() == 1 {
		return w, nil
	}
	if min := netsim.MinCrossLatency(cfg.Topology, cfg.Ranks, shardOf); g.Lookahead() > min {
		return nil, fmt.Errorf("mpi: shard lookahead %v exceeds minimum cross-shard latency %v of %s",
			g.Lookahead(), min, cfg.Topology.Describe())
	}
	w.group = g
	w.records = extend(w.records, g.Shards())
	for i := range w.records {
		w.records[i].max = 0
	}
	for i, st := range w.ranks {
		s := shardOf(i)
		if s < 0 || s >= g.Shards() {
			return nil, fmt.Errorf("mpi: shardOf(%d) = %d, out of range [0,%d)", i, s, g.Shards())
		}
		st.sched = g.Shard(s)
		st.records = &w.records[s]
		st.records.max += recordsPerRank
	}
	deal(w.records)
	return w, nil
}

// sharded reports whether the world's ranks span more than one shard.
func (w *World) sharded() bool { return w.group != nil }

// crossDelay returns the congestion delay for a transfer, zero on topologies
// without occupancy state. Must be called from the sender's shard.
func (w *World) crossDelay(now sim.Time, from, to *rankState, size int64) sim.Duration {
	if w.congested == nil {
		return 0
	}
	return w.congested.CrossDelay(now, from.id, to.id, size)
}

// latency returns the one-way wire latency between two ranks' nodes.
func (w *World) latency(src, dst int) sim.Duration {
	return w.cfg.Topology.Latency(src, dst)
}

// Comm returns the world communicator handle for the given rank. Handles
// are cached: repeated calls return the same object, so collective sequence
// numbers stay consistent. The handle is bound to a single-thread placement
// until SetPlacement installs a thread layout.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.cfg.Ranks {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.cfg.Ranks))
	}
	if w.comms[rank] == nil {
		c := new(Comm)
		c.reset(w, rank)
		w.comms[rank] = c
	}
	return w.comms[rank]
}

// reset readies c as the world communicator handle of rank in w, keeping
// its endpoint storage: the cached Endpoints point at c, so they stay
// valid.
func (c *Comm) reset(w *World, rank int) {
	*c = Comm{world: w, rank: rank, placement: w.single, endpoints: c.endpoints}
}

// Launch spawns one proc per rank running fn. It is the typical entry point
// for writing SPMD programs against the library.
func (w *World) Launch(name string, fn func(c *Comm, p *sim.Proc)) {
	for r := 0; r < w.cfg.Ranks; r++ {
		c := w.Comm(r)
		w.ranks[r].sched.Spawn(fmt.Sprintf("%s/rank%d", name, r), func(p *sim.Proc) {
			fn(c, p)
		})
	}
}

// Comm is the world communicator handle of one rank. It also carries the
// rank's thread placement so thread-aware calls (Endpoint, partitioned
// Pready) can charge socket-dependent costs.
type Comm struct {
	world     *World
	rank      int
	placement *cluster.Placement
	// endpoints caches the per-thread handles Endpoint returns.
	endpoints []Endpoint
	// pbcastSeq is a per-rank sequence number of partitioned broadcasts;
	// it stays aligned across ranks because MPI requires every rank to
	// issue collectives in the same order.
	pbcastSeq int
}

// checkRank returns rank, panicking when it names no rank of the world.
func (c *Comm) checkRank(rank int) int {
	if rank < 0 || rank >= c.world.cfg.Ranks {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, c.world.cfg.Ranks))
	}
	return rank
}

// Rank returns the calling process's rank.
func (c *Comm) Rank() int { return c.rank }

// size returns the number of ranks in the world.
func (c *Comm) size() int { return c.world.cfg.Ranks }

// SetPlacement installs the thread→core layout used by thread-aware calls.
func (c *Comm) SetPlacement(p *cluster.Placement) { c.placement = p }

// state returns the rank's library state.
func (c *Comm) state() *rankState { return c.world.ranks[c.rank] }

// sched returns the shard this rank's state lives on (the world scheduler in
// a sequential world).
func (c *Comm) sched() *sim.Scheduler { return c.world.ranks[c.rank].sched }

// peer returns another rank's library state.
func (c *Comm) peer(rank int) *rankState {
	return c.world.ranks[c.checkRank(rank)]
}

// NICStats returns the rank's NIC traffic counters.
func (c *Comm) NICStats() netsim.Stats { return c.state().nic.Stats() }

// libCall is one thread's stay inside the MPI library, as returned by
// enter. It is a plain two-word value, not a closure, so entering the
// library allocates nothing.
type libCall struct {
	lock *sim.Mutex // the library lock held, nil outside Multiple mode
	p    *sim.Proc
}

// done leaves the library, releasing the lock if enter took it.
func (l libCall) done() {
	if l.lock != nil {
		l.lock.Unlock(l.p)
	}
}

// enter models the cost of entering the MPI library from the given thread:
// the call overhead plus, in Multiple mode, the library lock. The caller
// must call done on the result when the library work is finished.
// threadHeld is the extra time the lock is held beyond the call overhead.
func (c *Comm) enter(p *sim.Proc, threadHeld sim.Duration) libCall {
	w := c.world
	if w.cfg.ThreadMode != Multiple {
		p.Sleep(w.cfg.CallOverhead + threadHeld)
		return libCall{}
	}
	st := c.state()
	waiters := st.lock.Waiters()
	st.lock.Lock(p)
	cost := w.cfg.LockBase + sim.Duration(waiters)*w.cfg.LockContention +
		w.cfg.CallOverhead + threadHeld
	p.Sleep(cost)
	return libCall{lock: &st.lock, p: p}
}
