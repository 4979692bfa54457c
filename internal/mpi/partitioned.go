package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

// maxPartitions bounds the partition count so MPIPCL internal tags can be
// encoded as tag*maxPartitions+index without collisions.
const maxPartitions = 1 << 16

// PRequest is a partitioned-communication request, the analogue of the
// MPI_Request returned by MPI_Psend_init / MPI_Precv_init. It is persistent:
// one Init, then any number of Start / Pready… / Wait epochs.
//
// The harness-facing timestamp accessors (FirstReadyAt, ReadyAt, ArrivedAt,
// LastArriveAt) expose the event times the paper's metrics are defined over.
type PRequest struct {
	comm      *Comm
	kind      reqKind
	peer      int
	tag       int
	parts     int
	partBytes int64
	impl      PartImpl

	// sendBuf/recvBuf optionally carry real payload (len parts*partBytes).
	sendBuf []byte
	recvBuf []byte

	active bool
	epoch  int

	// send-side epoch state
	readied    []bool
	readyTimes []sim.Time

	// recv-side epoch state
	arrived      []bool
	arrivedTimes []sim.Time
	// partDone lets procs block on individual partitions (WaitPartition,
	// used by the partitioned collectives and receive-side pipelines).
	partDone []sim.Completion
	// covered tracks, for the native implementation, how many bytes of
	// each receive partition have landed; it is what lets the two sides
	// partition the buffer differently (MPI 4.0 semantics).
	covered []int64

	remaining int
	allDone   sim.Completion

	// MPIPCL internals: one persistent inner request per partition, created
	// the first time the partition is used and restarted every epoch after
	// (see innerRequest).
	inner []*Request

	// native internals
	boundTo *PRequest
	// bound is created in sharded worlds, where the peer's init notification
	// crosses shards with a delay: it fires once boundTo is set, and
	// startNative blocks on it instead of panicking. Nil in sequential worlds
	// (binding there is synchronous).
	bound     *sim.Completion
	bootstrap bool // first Start still owes the setup round trip
	// pendingNative buffers arrivals for epochs the receiver has not
	// started yet (senders may pipeline ahead; MPI epoch counts must match
	// on both sides, so arrivals are drained by epoch number at Start).
	pendingNative []nativeArrival
}

// nativeArrival is a partition landing recorded before its receive epoch
// started.
type nativeArrival struct {
	part  int
	epoch int
	at    sim.Time
	data  []byte
}

// PsendInit creates a partitioned send of parts partitions of partBytes
// bytes each to dest with the given tag.
func (c *Comm) PsendInit(p *sim.Proc, dest, tag, parts int, partBytes int64) *PRequest {
	pr := c.partInit(p, sendReq, dest, tag, parts, partBytes)
	if c.world.cfg.PartImpl == PartNative {
		c.nativeBind(pr)
	}
	return pr
}

// PrecvInit creates the matching partitioned receive from src.
//
// With the layered MPIPCL implementation the partition count and size must
// equal the sender's — the restriction the paper notes ("send and receive
// partitions must have equal counts"); a mismatch manifests as unmatched
// internal transfers, as with the real library. The native implementation
// supports the full MPI 4.0 semantics: the two sides may partition the
// buffer differently as long as the total size matches, and a receive
// partition completes when its byte range is fully covered.
func (c *Comm) PrecvInit(p *sim.Proc, src, tag, parts int, partBytes int64) *PRequest {
	pr := c.partInit(p, recvReq, src, tag, parts, partBytes)
	if c.world.cfg.PartImpl == PartNative {
		c.nativeBind(pr)
	}
	return pr
}

func (c *Comm) partInit(p *sim.Proc, kind reqKind, peer, tag, parts int, partBytes int64) *PRequest {
	peer = c.checkRank(peer)
	if parts <= 0 || parts >= maxPartitions {
		panic(fmt.Sprintf("mpi: partition count %d out of range [1,%d)", parts, maxPartitions))
	}
	if partBytes < 0 {
		panic("mpi: negative partition size")
	}
	c.enter(p, 0).done()
	pr := c.state().preqs.take()
	*pr = PRequest{
		comm:      c,
		kind:      kind,
		peer:      peer,
		tag:       tag,
		parts:     parts,
		partBytes: partBytes,
		impl:      c.world.cfg.PartImpl,
		bootstrap: true,

		// Storage an earlier init left: the epoch state is sized by Start.
		readied:       pr.readied[:0],
		readyTimes:    pr.readyTimes[:0],
		arrived:       pr.arrived[:0],
		arrivedTimes:  pr.arrivedTimes[:0],
		partDone:      pr.partDone[:0],
		covered:       pr.covered[:0],
		inner:         pr.inner[:0],
		allDone:       pr.allDone,
		pendingNative: pr.pendingNative[:0],
	}
	pr.allDone.Reset()
	if pr.impl == PartMPIPCL {
		pr.inner = extend(pr.inner, parts)
	}
	return pr
}

// resized returns xs with length n and every element zero, in xs's storage
// when it is large enough.
func resized[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// rearmed returns n completions, not done, in cs's storage when it is large
// enough. Reset, unlike zeroing, keeps the fire count a proc woken by the
// last round still checks on its way out of Wait.
func rearmed(cs []sim.Completion, n int) []sim.Completion {
	if cap(cs) < n {
		return make([]sim.Completion, n)
	}
	cs = cs[:n]
	for i := range cs {
		cs[i].Reset()
	}
	return cs
}

// nativeBind pairs a native-implementation PRequest with its peer through
// the receiver-side registry. Matching happens once, here, as a native
// implementation would do at initialization time. In a sharded world the
// registry may live on another shard: the visit is deferred there (one
// lookahead out) and the pairing notification comes back the same way,
// firing pr.bound; startNative waits for it.
func (c *Comm) nativeBind(pr *PRequest) {
	w := c.world
	regRank := c.rank
	var key partKey
	if pr.kind == sendReq {
		regRank = pr.peer // registry lives at the receiver
		key = partKey{src: c.rank, tag: pr.tag}
	} else {
		key = partKey{src: pr.peer, tag: pr.tag}
	}
	reg := w.ranks[regRank]
	self := c.sched()
	if w.sharded() {
		// Any party may have a cross-shard peer, so every request gets a
		// completion to block on; it fires when the pairing lands.
		pr.bound = new(sim.Completion)
	}
	if reg.sched == self {
		w.bindAt(reg, key, pr)
		return
	}
	at := self.Now().Add(w.group.Lookahead())
	self.Defer(reg.sched, at, func() { w.bindAt(reg, key, pr) })
}

// bindAt performs the registry match. It runs on the registry owner's shard,
// the only place the registry is ever touched.
func (w *World) bindAt(reg *rankState, key partKey, pr *PRequest) {
	wantKind := recvReq
	if pr.kind == recvReq {
		wantKind = sendReq
	}
	pending := reg.partRegistry[key]
	for i, other := range pending {
		if other.kind == wantKind {
			reg.partRegistry[key] = append(pending[:i], pending[i+1:]...)
			// MPI 4.0 allows the two sides to partition the buffer
			// differently as long as the total transfer size matches (the
			// MPIPCL layered library cannot; see PrecvInit).
			if other.totalBytes() != pr.totalBytes() {
				panic(fmt.Sprintf("mpi: partitioned init size mismatch: %dB vs %dB",
					other.totalBytes(), pr.totalBytes()))
			}
			if (other.partBytes == 0 || pr.partBytes == 0) && other.parts != pr.parts {
				panic("mpi: zero-byte partitions require equal partition counts")
			}
			w.completeBind(reg, other, pr)
			w.completeBind(reg, pr, other)
			return
		}
	}
	if reg.partRegistry == nil {
		reg.partRegistry = make(map[partKey][]*PRequest)
	}
	reg.partRegistry[key] = append(pending, pr)
}

// completeBind records that pr is now paired with other, on pr's own shard
// so that pr's state is only ever written there.
func (w *World) completeBind(reg *rankState, pr, other *PRequest) {
	dst := w.ranks[pr.comm.rank].sched
	if dst == reg.sched {
		pr.boundTo = other
		if pr.bound != nil {
			pr.bound.Fire(dst)
		}
		return
	}
	at := reg.sched.Now().Add(w.group.Lookahead())
	reg.sched.Defer(dst, at, func() {
		pr.boundTo = other
		pr.bound.Fire(dst)
	})
}

// BindSendBuffer attaches a real payload buffer (len parts*partBytes) whose
// partitions are transferred byte-for-byte.
func (pr *PRequest) BindSendBuffer(buf []byte) {
	if pr.kind != sendReq {
		panic("mpi: BindSendBuffer on receive request")
	}
	if int64(len(buf)) != int64(pr.parts)*pr.partBytes {
		panic(fmt.Sprintf("mpi: send buffer length %d != parts*partBytes %d", len(buf), int64(pr.parts)*pr.partBytes))
	}
	pr.sendBuf = buf
}

// BindRecvBuffer attaches the destination buffer partitions are assembled
// into.
func (pr *PRequest) BindRecvBuffer(buf []byte) {
	if pr.kind != recvReq {
		panic("mpi: BindRecvBuffer on send request")
	}
	if int64(len(buf)) != int64(pr.parts)*pr.partBytes {
		panic(fmt.Sprintf("mpi: recv buffer length %d != parts*partBytes %d", len(buf), int64(pr.parts)*pr.partBytes))
	}
	pr.recvBuf = buf
}

// totalBytes returns parts*partBytes.
func (pr *PRequest) totalBytes() int64 { return int64(pr.parts) * pr.partBytes }

func (pr *PRequest) checkPartition(i int) {
	if i < 0 || i >= pr.parts {
		panic(fmt.Sprintf("mpi: partition %d out of range [0,%d)", i, pr.parts))
	}
}

// pcclTag encodes the internal tag MPIPCL uses for partition i.
func (pr *PRequest) pcclTag(i int) int { return pr.tag*maxPartitions + i }

// Start begins a communication epoch, the analogue of MPI_Start on a
// partitioned request. On the receive side the MPIPCL implementation posts
// all internal per-partition receives here; the native implementation just
// arms its counters. Must be called from a serial section (one thread).
//
// The epoch state is sized by the first Start — in the storage of a request
// an earlier world made, when the init reused one — and cleared in place by
// every later one.
func (pr *PRequest) Start(p *sim.Proc) {
	if pr.active {
		panic("mpi: Start on active partitioned request")
	}
	pr.active = true
	pr.epoch++
	pr.allDone.Reset()
	pr.remaining = pr.parts
	if pr.kind == sendReq {
		pr.readied = resized(pr.readied, pr.parts)
		pr.readyTimes = resized(pr.readyTimes, pr.parts)
	} else {
		pr.arrived = resized(pr.arrived, pr.parts)
		pr.arrivedTimes = resized(pr.arrivedTimes, pr.parts)
		pr.partDone = rearmed(pr.partDone, pr.parts)
		if pr.impl == PartNative {
			pr.covered = resized(pr.covered, pr.parts)
		}
	}

	switch pr.impl {
	case PartMPIPCL:
		pr.startMPIPCL(p)
	case PartNative:
		pr.startNative(p)
	default:
		panic("mpi: unknown partitioned implementation")
	}
}

func (pr *PRequest) startMPIPCL(p *sim.Proc) {
	c := pr.comm
	w := c.world
	call := c.enter(p, 0)
	defer call.done()
	if pr.kind == sendReq {
		// Sends are issued lazily by Pready.
		return
	}
	// Receive side: pre-post one internal irecv per partition. This is the
	// "matching happens once, up front" property of partitioned
	// communication: partitions always land pre-posted.
	for i := 0; i < pr.parts; i++ {
		p.Sleep(w.cfg.PcclPartitionSetup)
		rreq := pr.innerRequest(i)
		*rreq = Request{
			comm:    c,
			kind:    recvReq,
			peer:    pr.peer,
			tag:     pr.pcclTag(i),
			ctx:     ctxPccl,
			part:    pr,
			partIdx: i,
		}
		c.postRecv(p, rreq)
	}
}

// innerRequest returns partition i's inner request for the caller to restart
// (overwrite, pointing it back at pr and i). MPIPCL builds each partition on
// a persistent request, so an epoch allocates none: the request is made on
// first use and kept, by later epochs and by the next request an init makes
// from pr's storage. By the time an epoch can start, the previous one has
// completed every inner request; one with a completion still pending is a
// bug and panics.
func (pr *PRequest) innerRequest(i int) *Request {
	r := pr.inner[i]
	if r == nil {
		r = new(Request)
		pr.inner[i] = r
	} else if r.completing {
		panic(fmt.Sprintf("mpi: partition %d restarted with a completion pending", i))
	}
	return r
}

// innerDone reports the completion of inner request r to pr: partition
// r.partIdx arrived (receive side) or left (send side).
func (pr *PRequest) innerDone(r *Request) {
	if pr.kind == recvReq {
		pr.partitionArrived(r.partIdx, r.completedAt, r.data)
	} else {
		pr.partitionSent()
	}
}

func (pr *PRequest) startNative(p *sim.Proc) {
	c := pr.comm
	w := c.world
	if pr.boundTo == nil {
		if pr.bound == nil {
			panic(fmt.Sprintf("mpi: native partitioned Start on rank %d (tag %d) before the peer initialized; initialize both sides first", c.rank, pr.tag))
		}
		// Sharded world: the peer's bind notification may still be crossing
		// shards. Block until the pairing lands; a missing peer parks the
		// proc forever and surfaces as a simulation deadlock.
		pr.bound.Wait(p)
	}
	call := c.enter(p, 0)
	defer call.done()
	if pr.bootstrap {
		// Matching and buffer registration handshake, paid once.
		p.Sleep(2*w.cfg.Net.Latency + w.cfg.Net.RendezvousSetup)
		pr.bootstrap = false
	}
	if pr.kind == recvReq && len(pr.pendingNative) > 0 {
		// Drain partitions a pipelining sender landed before this epoch
		// started. They complete "now": the data was already in the
		// persistent buffer.
		now := p.Now()
		kept := pr.pendingNative[:0]
		for _, a := range pr.pendingNative {
			if a.epoch == pr.epoch {
				a.at = now
				pr.applyNativeArrival(a)
			} else {
				kept = append(kept, a)
			}
		}
		pr.pendingNative = kept
	}
}

// nativeArrive routes a native partition landing: applied immediately when
// the receive epoch is active, buffered otherwise (scheduler context).
func (pr *PRequest) nativeArrive(a nativeArrival) {
	if pr.active && pr.epoch == a.epoch {
		pr.applyNativeArrival(a)
		return
	}
	pr.pendingNative = append(pr.pendingNative, a)
}

// applyNativeArrival copies the payload into the bound buffer at the
// *sender's* partition offset and credits the overlapped *receive*
// partitions, completing each one whose byte range is fully covered. When
// both sides use the same partitioning this degenerates to a 1:1 mapping.
func (pr *PRequest) applyNativeArrival(a nativeArrival) {
	sBytes := pr.boundTo.partBytes
	lo := int64(a.part) * sBytes
	hi := lo + sBytes
	if a.data != nil && pr.recvBuf != nil {
		copy(pr.recvBuf[lo:hi], a.data)
	}
	if pr.partBytes == 0 {
		// Degenerate zero-byte partitions: 1:1 mapping by index.
		pr.partitionArrived(a.part, a.at, nil)
		return
	}
	first := lo / pr.partBytes
	last := (hi - 1) / pr.partBytes
	for j := first; j <= last; j++ {
		jLo := j * pr.partBytes
		jHi := jLo + pr.partBytes
		overlap := min64(hi, jHi) - max64(lo, jLo)
		pr.covered[j] += overlap
		if pr.covered[j] == pr.partBytes {
			pr.partitionArrived(int(j), a.at, nil)
		} else if pr.covered[j] > pr.partBytes {
			panic(fmt.Sprintf("mpi: receive partition %d over-covered (%d of %d bytes)", j, pr.covered[j], pr.partBytes))
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Pready marks partition i ready for transfer, the analogue of MPI_Pready.
// It must be called exactly once per partition per epoch. Partition i is
// charged the injection cost of thread i of the rank's placement, the
// paper's one-thread-per-partition assignment; any proc may make the call.
func (pr *PRequest) Pready(p *sim.Proc, i int) {
	if pr.kind != sendReq {
		panic("mpi: Pready on receive request")
	}
	if !pr.active {
		panic("mpi: Pready before Start")
	}
	pr.checkPartition(i)
	if pr.readied[i] {
		panic(fmt.Sprintf("mpi: partition %d readied twice", i))
	}
	pr.readied[i] = true
	pr.readyTimes[i] = p.Now()

	c := pr.comm
	w := c.world
	extra := c.placement.InjectionPenalty(i) + w.cfg.Mem.AccessStall(pr.partBytes)
	var payload []byte
	if pr.sendBuf != nil {
		payload = pr.sendBuf[int64(i)*pr.partBytes : int64(i+1)*pr.partBytes]
	}

	switch pr.impl {
	case PartMPIPCL:
		// MPIPCL turns Pready into an internal MPI_Isend, paying full
		// per-message costs and, under MPI_THREAD_MULTIPLE, the library
		// lock.
		call := c.enter(p, w.cfg.PcclPartitionSetup)
		sreq := pr.innerRequest(i)
		*sreq = Request{
			comm:    c,
			kind:    sendReq,
			peer:    pr.peer,
			tag:     pr.pcclTag(i),
			ctx:     ctxPccl,
			size:    pr.partBytes,
			data:    payload,
			thread:  i,
			part:    pr,
			partIdx: i,
		}
		w.startSend(p.Now(), c.state(), w.ranks[pr.peer], sreq, extra)
		call.done()
	case PartNative:
		// Native: a flag write plus a doorbell; no lock, no matching.
		// Snapshot the payload: the sender may legally overwrite its buffer
		// for the next epoch while a pipelined arrival is still buffered at
		// the receiver.
		if payload != nil {
			payload = append([]byte(nil), payload...)
		}
		p.Sleep(w.cfg.NativePreadyCost)
		st := c.state()
		rst := w.ranks[pr.peer]
		oneWay := w.latency(c.rank, pr.peer) + w.crossDelay(p.Now(), st, rst, pr.partBytes)
		txDone, arrive := st.nic.InjectLat(p.Now(), pr.partBytes, extra, oneWay)
		st.sched.AtFire(txDone, pr, 0)
		m := w.newInbound(st, rst)
		m.precv, m.part, m.epoch, m.data = pr.boundTo, i, pr.epoch, payload
		st.sched.DeferFire(rst.sched, arrive, m, partAtNIC)
	}
}

// Fire is the local completion of one native partition's transfer, the
// event Pready schedules at its txDone.
func (pr *PRequest) Fire(int) { pr.partitionSent() }

// partitionSent records local completion of one partition's transfer on the
// send side (scheduler context).
func (pr *PRequest) partitionSent() {
	pr.remaining--
	if pr.remaining == 0 {
		pr.allDone.Fire(pr.comm.sched())
	}
}

// partitionArrived records one partition landing on the receive side
// (scheduler context).
func (pr *PRequest) partitionArrived(i int, t sim.Time, data []byte) {
	if pr.arrived[i] {
		panic(fmt.Sprintf("mpi: partition %d arrived twice", i))
	}
	pr.arrived[i] = true
	pr.arrivedTimes[i] = t
	if data != nil && pr.recvBuf != nil {
		copy(pr.recvBuf[int64(i)*pr.partBytes:int64(i+1)*pr.partBytes], data)
	}
	pr.partDone[i].Fire(pr.comm.sched())
	pr.remaining--
	if pr.remaining == 0 {
		pr.allDone.Fire(pr.comm.sched())
	}
}

// WaitPartition blocks until partition i of an active receive epoch has
// arrived. Unlike Parrived (a test), this parks the calling proc; it is the
// building block for receive-side pipelines and the partitioned
// collectives.
func (pr *PRequest) WaitPartition(p *sim.Proc, i int) {
	if pr.kind != recvReq {
		panic("mpi: WaitPartition on send request")
	}
	if !pr.active {
		panic("mpi: WaitPartition before Start")
	}
	pr.checkPartition(i)
	pr.comm.enter(p, 0).done()
	pr.partDone[i].Wait(p)
}

// Parrived reports whether partition i has arrived, the analogue of
// MPI_Parrived. It charges one MPI call overhead and may be called
// concurrently by threads in a parallel region.
func (pr *PRequest) Parrived(p *sim.Proc, i int) bool {
	if pr.kind != recvReq {
		panic("mpi: Parrived on send request")
	}
	if !pr.active {
		panic("mpi: Parrived before Start")
	}
	pr.checkPartition(i)
	pr.comm.enter(p, 0).done()
	return pr.arrived[i]
}

// Wait completes the epoch: on the send side all partitions must have been
// readied and locally completed; on the receive side all partitions must
// have arrived. The analogue of MPI_Wait on a partitioned request. After
// Wait the request is inactive and can be Started again.
func (pr *PRequest) Wait(p *sim.Proc) {
	if !pr.active {
		panic("mpi: Wait on inactive partitioned request")
	}
	pr.comm.enter(p, 0).done()
	pr.allDone.Wait(p)
	pr.active = false
}

// ReadyAt returns the time Pready was called on partition i this epoch
// (send side).
func (pr *PRequest) ReadyAt(i int) sim.Time {
	pr.checkPartition(i)
	if pr.kind != sendReq || !pr.readied[i] {
		panic("mpi: ReadyAt on un-readied partition")
	}
	return pr.readyTimes[i]
}

// FirstReadyAt returns the earliest Pready time of the epoch (the start of
// t_part in the paper's overhead metric).
func (pr *PRequest) FirstReadyAt() sim.Time {
	first := sim.Time(-1)
	for i, ok := range pr.readied {
		if ok && (first < 0 || pr.readyTimes[i] < first) {
			first = pr.readyTimes[i]
		}
	}
	if first < 0 {
		panic("mpi: FirstReadyAt with no partitions readied")
	}
	return first
}

// ArrivedAt returns the arrival time of partition i this epoch (receive
// side).
func (pr *PRequest) ArrivedAt(i int) sim.Time {
	pr.checkPartition(i)
	if pr.kind != recvReq || !pr.arrived[i] {
		panic("mpi: ArrivedAt on un-arrived partition")
	}
	return pr.arrivedTimes[i]
}

// LastArriveAt returns the latest partition arrival time of the epoch (the
// end of t_part: the "last MPI_Parrived" instant).
func (pr *PRequest) LastArriveAt() sim.Time {
	last := sim.Time(-1)
	for i, ok := range pr.arrived {
		if !ok {
			panic("mpi: LastArriveAt before all partitions arrived")
		}
		if pr.arrivedTimes[i] > last {
			last = pr.arrivedTimes[i]
		}
	}
	return last
}
