package sim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file adds the conservative parallel layer over the sequential kernel:
// a ShardGroup partitions the simulation into independent Schedulers (one
// per shard) that run real OS-parallel windows of virtual time, synchronized
// by a lookahead barrier (a window-based conservative protocol in the YAWNS
// family).
//
// The protocol invariant is the classic one: if every cross-shard
// interaction carries at least `lookahead` of virtual latency, then every
// shard may safely process all events strictly before
//
//	min over all shards of (next event time) + lookahead
//
// because any event processed in that window happens at or after the global
// minimum, so any cross-shard effect it produces lands at or after
// min + lookahead — strictly outside the window. The bound must be global,
// not per-shard: a shard whose queue is momentarily empty (all its procs
// parked on completions) is NOT at an infinite horizon, because the barrier
// can deliver events that wake it and make it reply only one lookahead
// later.
//
// Execution decouples logical shards from OS parallelism: Run starts a
// persistent pool of min(GOMAXPROCS, shards) window workers once, and each
// round dispatches the shards with work in the window to the pool in shard
// order, with idle workers claiming the remaining shards off a shared
// cursor. Over-decomposition (more shards than cores) thereby becomes the
// load-balancing mechanism: a hot shard no longer serializes the window,
// because the other workers drain the rest of the queue around it.
//
// Determinism is by construction, not by scheduling: shards touch only
// their own state inside a window, cross-shard events are buffered in
// per-shard outboxes, and the barrier delivers them in the total order
// (at, born, src, seq) — a pure sort, independent of which worker ran which
// shard, in what order, or how fast. Any shard-to-worker assignment (any
// worker count, any claim order) therefore yields byte-identical results;
// the dispatch order can only change wall-clock time.
// The contract is pinned by the determinism tests in shard_test.go.
//
// A group of one shard is special-cased to be the sequential kernel,
// literally: the shard is a plain Scheduler with no group attached, Run
// delegates to Scheduler.Run, and every event takes the exact code path a
// standalone scheduler would take. Single-shard runs are therefore
// byte-identical to the pre-shard kernel and serve as the deterministic
// reference for multi-shard runs.

// crossEvent is an event produced on one shard for another, buffered until
// the window barrier.
type crossEvent struct {
	dst  *Scheduler
	at   Time
	born Time   // sender-side creation time, the first same-time tiebreak
	src  int    // source shard id, part of the deterministic merge order
	seq  uint64 // per-source issue order, the rest of the merge order
	h    Handler
	op   int
}

// Outbox shrink policy (see tickOutbox): every outboxShrinkEvery windows a
// shard whose outbox capacity exceeds four times its recent peak use (and
// the floor) is reallocated down, so one bursty window does not pin the
// high-water buffer for the rest of the run.
const (
	outboxShrinkEvery = 32
	outboxMinCap      = 64
)

// ShardStats are the group's execution counters, in the style of
// engine.Stats. All of it is host-side telemetry: none of these values
// feed back into the simulation, and deterministic journals exclude them
// (they legitimately differ across shard counts, worker counts, and runs).
type ShardStats struct {
	// Shards and Workers are the group's shard count and window-worker
	// pool size.
	Shards  int `json:"shards"`
	Workers int `json:"workers"`
	// Windows is the number of conservative windows executed.
	Windows int64 `json:"windows"`
	// Events is the total number of events dispatched inside windows.
	Events int64 `json:"events"`
	// Merged counts cross-shard events k-way-merged at barriers;
	// MergeSkips counts windows that ended with zero cross-shard events
	// and skipped the merge entirely.
	Merged     int64 `json:"merged"`
	MergeSkips int64 `json:"merge_skips"`
	// Steals counts shard-windows executed by a worker other than the one
	// an even contiguous split would give the shard (worker sid*W/n) — the
	// number of rebalancing moves the cursor made.
	Steals int64 `json:"steals"`
	// Shrinks counts outbox buffers reallocated down by the high-water
	// shrink policy.
	Shrinks int64 `json:"shrinks"`
	// PredNS is always 0: the pool no longer predicts window costs. It
	// stays until the benchmark stops reading it. ActualNS is the measured
	// host time of all shard-windows summed.
	PredNS   int64 `json:"pred_ns"`
	ActualNS int64 `json:"actual_ns"`
	// ImbalanceMean / ImbalanceMax summarize the per-window imbalance
	// ratio: max over active shards of events processed, divided by the
	// mean — 1.0 is perfectly balanced.
	ImbalanceMean float64 `json:"imbalance_mean"`
	ImbalanceMax  float64 `json:"imbalance_max"`
}

// ShardSpan describes one executed shard-window for tracing: which pool
// worker ran which shard in which window, in host time relative to the
// group's Run epoch. Stolen marks spans executed off the shard's even-split
// lane (see ShardStats.Steals). Spans are emitted by the coordinator between
// windows, in shard order, so observers need no locking.
type ShardSpan struct {
	Window  int64
	Worker  int
	Shard   int
	StartNS int64
	EndNS   int64
	Events  int64
	Stolen  bool
}

// ShardGroup owns a set of shard Schedulers and drives them with the
// conservative window protocol.
type ShardGroup struct {
	shards    []*Scheduler
	lookahead Duration
	running   bool

	// Pool configuration, frozen when Run starts.
	workers int // 0 = min(GOMAXPROCS, shards)
	span    func(ShardSpan)
	// timed enables per-shard-window wall-clock sampling: on for a
	// multi-worker pool (ActualNS) or a span observer; off for a one-worker
	// pool, where the clock calls would be pure overhead (ActualNS then
	// reports 0).
	timed bool

	// next[i] caches shard i's head-of-queue time each round; limit is the
	// current window's inclusive drive limit. Both are written by the
	// coordinator before workers are signaled.
	next  []Time
	limit Time

	// Window worker pool. order lists the shards active in the current
	// window, in shard order; workers claim positions off cursor.
	startCh []chan struct{}
	wg      sync.WaitGroup
	order   []int
	cursor  atomic.Int64
	epochNS int64 // wall-clock epoch of Run, for span timestamps

	// Per-shard per-window scratch, written by the executing worker and
	// read by the coordinator after the window barrier.
	panics    []any
	winEvents []int64
	winNS     []int64
	winStart  []int64
	winEnd    []int64
	winWorker []int

	// Barrier merge scratch: shard ids with non-empty outboxes and the
	// live run tails of the k-way merge.
	heads []int
	runs  [][]crossEvent

	stats        ShardStats
	imbalanceSum float64
}

// NewShardGroup creates n shard schedulers, built from arena a's shard slots
// (see Arena): shard 0 is a.New(), shard i > 0 comes from the arena's
// sub-arena i. A Run whose procs all finish gives every shard's runners,
// free events, queue, proc-list and outbox capacity back to its slot; a
// deadlock or a panic discards them, as Scheduler.Run does. The nil arena
// keeps nothing.
// For n > 1 the lookahead must be positive: it is the minimum virtual
// latency of any cross-shard interaction, and the window width of the
// conservative protocol. A group of one shard is exactly the sequential
// kernel (the shard may even be driven directly via Scheduler.Run).
func NewShardGroup(a *Arena, n int, lookahead Duration) *ShardGroup {
	if n <= 0 {
		panic(fmt.Sprintf("sim: shard count %d must be positive", n))
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: a multi-shard group requires a positive lookahead")
	}
	g := &ShardGroup{lookahead: lookahead, next: make([]Time, n)}
	g.shards = make([]*Scheduler, n)
	for i := range g.shards {
		s := a.slot(i).New()
		s.shardID = i
		if n > 1 {
			// A single-shard group leaves group nil so the shard is an
			// ordinary scheduler (identical code paths, direct Run allowed).
			s.group = g
		}
		g.shards[i] = s
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's scheduler. Spawn procs on the shard that owns
// their state; procs on different shards must not share sync primitives
// (Mutex, Barrier, Completion, ...) — cross-shard interaction must go
// through Scheduler.Defer.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.shards[i] }

// Lookahead returns the group's lookahead window.
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// now returns the maximum virtual time reached by any shard.
func (g *ShardGroup) now() Time {
	var now Time
	for _, s := range g.shards {
		if s.now > now {
			now = s.now
		}
	}
	return now
}

// setWorkers overrides the window-worker pool size (normally
// min(GOMAXPROCS, shards)); n is clamped to [1, shards]. It must be called
// before Run. Worker count never affects results, only wall-clock time —
// the determinism tests drive the same workload at several pool sizes.
func (g *ShardGroup) setWorkers(n int) {
	if g.running {
		panic("sim: ShardGroup.setWorkers after Run")
	}
	if n < 1 {
		n = 1
	}
	if n > len(g.shards) {
		n = len(g.shards)
	}
	g.workers = n
}

// SetSpanObserver installs fn to receive one ShardSpan per executed
// shard-window, called from the coordinator between windows (no locking
// needed). Must be set before Run; nil disables. The observer cost is off
// the workers' critical path but still host time — leave it nil outside
// tracing runs.
func (g *ShardGroup) SetSpanObserver(fn func(ShardSpan)) {
	if g.running {
		panic("sim: ShardGroup.SetSpanObserver after Run")
	}
	g.span = fn
}

// Stats returns the group's execution counters. Call it after Run; a
// single-shard group (the sequential kernel) reports a zero value with
// Shards == 1.
func (g *ShardGroup) Stats() ShardStats {
	st := g.stats
	st.Shards = len(g.shards)
	if st.Windows > 0 {
		st.ImbalanceMean = g.imbalanceSum / float64(st.Windows)
	}
	return st
}

// poolSize resolves the effective worker count.
func (g *ShardGroup) poolSize() int {
	w := g.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > len(g.shards) {
		w = len(g.shards)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run drives all shards to completion and returns nil if every proc
// finished, or a *DeadlockError aggregating all shards' parked procs.
// Like Scheduler.Run it may be called exactly once.
func (g *ShardGroup) Run() error {
	if len(g.shards) == 1 {
		return g.shards[0].Run()
	}
	if g.running {
		panic("sim: ShardGroup.Run called twice")
	}
	g.running = true

	n := len(g.shards)
	W := g.poolSize()
	g.stats.Workers = W
	g.timed = W > 1 || g.span != nil
	g.epochNS = timeNowUnixNano()
	g.panics = make([]any, n)
	g.winEvents = make([]int64, n)
	g.winNS = make([]int64, n)
	g.winStart = make([]int64, n)
	g.winEnd = make([]int64, n)
	g.winWorker = make([]int, n)
	g.order = make([]int, 0, n)

	// The persistent worker pool: started once, signaled per window, torn
	// down when Run returns. Zero goroutine spawns per window.
	g.startCh = make([]chan struct{}, W)
	for w := 0; w < W; w++ {
		g.startCh[w] = make(chan struct{}, 1)
		go g.windowWorker(w)
	}
	defer func() {
		for _, ch := range g.startCh {
			close(ch)
		}
	}()

	for {
		work := false
		min := maxTime
		for i, s := range g.shards {
			if at, ok := s.queue.peek(); ok {
				g.next[i] = at
				work = true
				if g.next[i] < min {
					min = g.next[i]
				}
			} else {
				g.next[i] = maxTime
			}
		}
		if !work {
			break
		}
		// Events strictly before min+lookahead are safe for every shard
		// (anything processed in the window is at >= min, so its cross-shard
		// effects land at >= min+lookahead); the inclusive drive limit is one
		// nanosecond less.
		limit := maxTime
		if min < maxTime-Time(g.lookahead) {
			limit = min + Time(g.lookahead) - 1
		}
		g.limit = limit
		g.dispatchWindow()
		for i := range g.shards {
			if r := g.panics[i]; r != nil {
				g.release(false)
				panic(r)
			}
		}
		g.accountWindow()
		g.deliver()
	}
	return g.finish()
}

// dispatchWindow runs every shard with work in the current window on the
// worker pool and waits for the window barrier. A window with a single
// active shard runs inline on the coordinator — no signaling at all.
func (g *ShardGroup) dispatchWindow() {
	g.order = g.order[:0]
	for sid := range g.shards {
		if g.next[sid] <= g.limit {
			g.order = append(g.order, sid)
		}
	}
	if len(g.order) == 1 {
		g.runShardWindow(g.evenLane(g.order[0]), g.order[0])
		return
	}
	if len(g.startCh) == 1 {
		// A one-worker pool (GOMAXPROCS=1) degenerates to sequential
		// execution; run the window inline on the coordinator instead of
		// bouncing through the worker's channel.
		for _, sid := range g.order {
			g.runShardWindow(0, sid)
		}
		return
	}
	g.cursor.Store(0)
	nwake := g.poolWake(len(g.order))
	g.wg.Add(nwake)
	for w := 0; w < nwake; w++ {
		g.startCh[w] <- struct{}{}
	}
	g.wg.Wait()
}

// poolWake caps the number of workers woken at the number of active shards.
func (g *ShardGroup) poolWake(active int) int {
	if active < len(g.startCh) {
		return active
	}
	return len(g.startCh)
}

// evenLane is the worker an even contiguous split of the shards over the
// pool would give sid: the reference Steals and ShardSpan.Stolen count
// against, and the lane a window with one active shard is attributed to.
func (g *ShardGroup) evenLane(sid int) int { return sid * len(g.startCh) / len(g.shards) }

// windowWorker is the body of one pool worker: woken once per window, it
// claims shards off the cursor and runs each through the window.
func (g *ShardGroup) windowWorker(w int) {
	for range g.startCh[w] {
		for {
			pos := int(g.cursor.Add(1)) - 1
			if pos >= len(g.order) {
				break
			}
			g.runShardWindow(w, g.order[pos])
		}
		g.wg.Done()
	}
}

// runShardWindow executes one shard's window on worker w, capturing any
// escaping panic (re-raised on the coordinator, lowest shard first), the
// deterministic event count, and the host-time cost sample. It ends by
// sorting the shard's outbox — the parallel half of the barrier merge.
func (g *ShardGroup) runShardWindow(w, sid int) {
	s := g.shards[sid]
	defer func() {
		if r := recover(); r != nil {
			g.panics[sid] = r
		}
	}()
	var start int64
	if g.timed {
		start = timeNowUnixNano()
	}
	// The events processed this window: those popped and the sleeps that
	// took Sleep's short cut, each of which counts as one event.
	ev0 := s.counts.Popped + s.counts.ShortCut
	s.runWindow(g.limit)
	g.winEvents[sid] = s.counts.Popped + s.counts.ShortCut - ev0
	slices.SortFunc(s.outbox, func(a, b crossEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.born != b.born {
			if a.born < b.born {
				return -1
			}
			return 1
		}
		// seq is unique per source shard and every event in this outbox
		// shares src, so (at, born, seq) is a total order here.
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
	if g.timed {
		end := timeNowUnixNano()
		g.winNS[sid] = end - start
		g.winStart[sid], g.winEnd[sid] = start-g.epochNS, end-g.epochNS
	}
	g.winWorker[sid] = w
}

// accountWindow folds the finished window's per-shard samples into the
// group counters and emits trace spans. Runs on
// the coordinator, after the barrier, so it is single-threaded.
func (g *ShardGroup) accountWindow() {
	g.stats.Windows++
	var sum, max int64
	for _, sid := range g.order {
		ev := g.winEvents[sid]
		sum += ev
		if ev > max {
			max = ev
		}
		g.stats.ActualNS += g.winNS[sid]
		if g.winWorker[sid] != g.evenLane(sid) {
			g.stats.Steals++
		}
	}
	g.stats.Events += sum
	if len(g.order) > 0 && sum > 0 {
		mean := float64(sum) / float64(len(g.order))
		if r := float64(max) / mean; r > 0 {
			g.imbalanceSum += r
			if r > g.stats.ImbalanceMax {
				g.stats.ImbalanceMax = r
			}
		}
	} else {
		g.imbalanceSum += 1
	}
	if g.span != nil {
		win := g.stats.Windows - 1
		for sid := range g.shards {
			if g.next[sid] > g.limit {
				continue
			}
			g.span(ShardSpan{
				Window:  win,
				Worker:  g.winWorker[sid],
				Shard:   sid,
				StartNS: g.winStart[sid],
				EndNS:   g.winEnd[sid],
				Events:  g.winEvents[sid],
				Stolen:  g.winWorker[sid] != g.evenLane(sid),
			})
		}
	}
}

// deliver moves the window's cross-shard events into their destination
// queues in deterministic (at, born, src, seq) order. The per-shard
// outboxes were already sorted in parallel by the workers; the coordinator
// k-way-merges the sorted runs. Windows with no cross-shard traffic skip
// the merge entirely.
func (g *ShardGroup) deliver() {
	g.heads = g.heads[:0]
	total := 0
	for sid, s := range g.shards {
		if len(s.outbox) > 0 {
			g.heads = append(g.heads, sid)
			total += len(s.outbox)
		}
	}
	if total == 0 {
		g.stats.MergeSkips++
		g.tickOutboxes()
		return
	}
	g.stats.Merged += int64(total)
	if len(g.heads) == 1 {
		// A single sorted run needs no merge.
		for _, e := range g.shards[g.heads[0]].outbox {
			e.dst.atBorn(e.at, e.born, e.h, e.op)
		}
	} else {
		// K-way merge over the sorted runs. The scan works on a compacted
		// list of live run tails (advanced in place, swap-removed when
		// exhausted), so each step touches only the head elements.
		g.runs = g.runs[:0]
		for _, sid := range g.heads {
			g.runs = append(g.runs, g.shards[sid].outbox)
		}
		runs := g.runs
		for len(runs) > 1 {
			best := 0
			be := &runs[0][0]
			for hi := 1; hi < len(runs); hi++ {
				if e := &runs[hi][0]; crossBefore(e, be) {
					best, be = hi, e
				}
			}
			// atBorn keeps the sender-side creation time as the same-time
			// tiebreak, so the event interleaves with the destination's
			// local events exactly as it would have on a single scheduler.
			be.dst.atBorn(be.at, be.born, be.h, be.op)
			if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
				runs[best] = runs[len(runs)-1]
				runs = runs[:len(runs)-1]
			}
		}
		for _, e := range runs[0] {
			e.dst.atBorn(e.at, e.born, e.h, e.op)
		}
	}
	for _, sid := range g.heads {
		s := g.shards[sid]
		for i := range s.outbox {
			s.outbox[i] = crossEvent{}
		}
		s.outbox = s.outbox[:0]
	}
	for i := range g.runs {
		g.runs[i] = nil // do not pin a shrunk-away outbox array
	}
	g.tickOutboxes()
}

// crossBefore is the (at, born, src, seq) merge order. The heads compared
// always come from different outboxes, so src breaks every remaining tie.
func crossBefore(a, b *crossEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.born != b.born {
		return a.born < b.born
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// tickOutboxes advances every shard's outbox high-water bookkeeping by one
// window and shrinks buffers whose capacity greatly exceeds recent use: a
// spike window would otherwise pin the peak allocation for the rest of the
// run. Peak use per shrink epoch is recorded by Defer as the outbox grows;
// this runs at the barrier, after the outboxes have drained.
func (g *ShardGroup) tickOutboxes() {
	for _, s := range g.shards {
		s.outboxTick++
		if s.outboxTick < outboxShrinkEvery {
			continue
		}
		if c := cap(s.outbox); c > outboxMinCap && c > 4*s.outboxPeak {
			nc := 2 * s.outboxPeak
			if nc < outboxMinCap {
				nc = outboxMinCap
			}
			s.outbox = make([]crossEvent, 0, nc)
			g.stats.Shrinks++
		}
		s.outboxTick, s.outboxPeak = 0, 0
	}
}

// release ends every shard's hold on its coroutines and events (see
// Scheduler.release): clean gives them back to the shards' arena slots,
// otherwise they are stopped and dropped.
func (g *ShardGroup) release(clean bool) {
	for _, s := range g.shards {
		s.release(clean)
	}
}

// finish marks all shards terminally run, aggregates their deadlock state
// into one error, and releases their coroutines: back to the arena when no
// proc is left live.
func (g *ShardGroup) finish() error {
	live := 0
	var now Time
	var blocked []string
	for _, s := range g.shards {
		s.running = true
		if s.now > now {
			now = s.now
		}
		live += s.live
		if err := s.deadlock(); err != nil {
			blocked = append(blocked, err.(*DeadlockError).Blocked...)
		}
	}
	g.release(live == 0)
	if live == 0 {
		return nil
	}
	slices.Sort(blocked)
	return &DeadlockError{Now: now, Blocked: blocked}
}

// runWindow drives one shard through one conservative window: all queued
// events at or before limit. Unlike the public drives it never marks the
// scheduler terminally run — the queue legitimately drains between windows.
func (s *Scheduler) runWindow(limit Time) {
	s.windowing = true
	s.startDrive(limit)
	s.drive(limit)
	s.endDrive(false, false)
	s.windowing = false
}

// DeferFire schedules h.Fire(op) at absolute time t on dst. On the local
// scheduler it is exactly AtFire. Across shards of the same group it becomes
// a buffered cross-shard event, delivered at the next window barrier; t must
// respect the group's lookahead (t >= now + lookahead), which models the
// minimum cross-shard link latency and is what makes the conservative
// windows safe.
func (s *Scheduler) DeferFire(dst *Scheduler, t Time, h Handler, op int) {
	if dst == s {
		s.AtFire(t, h, op)
		return
	}
	if s.group == nil || dst.group != s.group {
		panic("sim: Defer target is not a shard of the same group")
	}
	if t < s.now.Add(s.group.lookahead) {
		panic(fmt.Sprintf("sim: cross-shard event at %v violates lookahead %v (now %v)",
			t, s.group.lookahead, s.now))
	}
	s.outSeq++
	s.outbox = append(s.outbox, crossEvent{dst: dst, at: t, born: s.now, src: s.shardID, seq: s.outSeq, h: h, op: op})
	if n := len(s.outbox); n > s.outboxPeak {
		s.outboxPeak = n
	}
}

// Defer is DeferFire with the func itself as the handler.
func (s *Scheduler) Defer(dst *Scheduler, t Time, fn func()) {
	s.DeferFire(dst, t, funcHandler(fn), 0)
}
