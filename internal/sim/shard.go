package sim

import (
	"fmt"
	"slices"
	"sync"
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
// Execution gives every shard a goroutine of its own, started once by Run
// and joined before Run returns. Each window wakes the goroutines of the
// shards with work in it, runs the last such shard on the coordinator
// itself, and waits for the rest; a window with one active shard therefore
// signals nobody. No goroutine is spawned per window.
//
// Determinism is by construction, not by scheduling: shards touch only
// their own state inside a window, and cross-shard events are buffered in
// per-shard outboxes. The barrier pushes them into their destination queues
// shard by shard, each outbox in issue order. The destination queue orders
// events by (at, born, seq) and stamps seq on delivery, so events of equal
// (at, born) fire in (source shard, issue) order: a function of the
// outboxes' contents alone, independent of which goroutine ran which shard,
// in what order, or how fast. Any GOMAXPROCS therefore yields
// byte-identical results; the host can only change wall-clock time.
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
	born Time // sender-side creation time, the first same-time tiebreak
	h    Handler
	op   int
}

// ShardStats are the group's execution counters, in the style of
// engine.Stats. All of it is host-side telemetry: none of these values
// feed back into the simulation, and deterministic journals exclude them
// (they legitimately differ across shard counts, hosts, and runs).
type ShardStats struct {
	// Shards is the group's shard count.
	Shards int `json:"shards"`
	// Windows is the number of conservative windows executed.
	Windows int64 `json:"windows"`
	// Events is the total number of events dispatched inside windows.
	Events int64 `json:"events"`
	// Merged counts cross-shard events delivered at barriers; MergeSkips
	// counts windows that ended with no cross-shard event.
	Merged     int64 `json:"merged"`
	MergeSkips int64 `json:"merge_skips"`
	// Steals and PredNS are always 0: every shard runs on its own
	// goroutine, so nothing is stolen, and nothing predicts window costs.
	// They stay until the benchmark stops reading them. ActualNS is the
	// measured host time of all shard-windows summed.
	Steals   int64 `json:"steals"`
	PredNS   int64 `json:"pred_ns"`
	ActualNS int64 `json:"actual_ns"`
	// ImbalanceMean is the mean per-window imbalance ratio: max over
	// active shards of events processed, divided by the mean — 1.0 is
	// perfectly balanced.
	ImbalanceMean float64 `json:"imbalance_mean"`
}

// ShardSpan describes one executed shard-window for tracing: which shard
// ran in which window, in host time relative to the group's Run epoch.
// Spans are emitted by the coordinator between windows, in shard order, so
// observers need no locking.
type ShardSpan struct {
	Window  int64
	Shard   int
	StartNS int64
	EndNS   int64
	Events  int64
}

// ShardGroup owns a set of shard Schedulers and drives them with the
// conservative window protocol.
type ShardGroup struct {
	shards    []*Scheduler
	lookahead Duration
	running   bool
	span      func(ShardSpan)

	// next[i] caches shard i's head-of-queue time each round; limit is the
	// current window's inclusive drive limit. Both are written by the
	// coordinator before the shards' goroutines are woken.
	next  []Time
	limit Time

	// wake[i] wakes shard i's goroutine for one window, and closing it ends
	// the goroutine, whose last act is a send on exited. wg counts the woken
	// windows still running. order lists the shards active in the current
	// window, in shard order.
	wake    []chan struct{}
	exited  chan struct{}
	wg      sync.WaitGroup
	order   []int
	epochNS int64 // wall-clock epoch of Run, for span timestamps

	// Per-shard per-window scratch, written by the executing goroutine and
	// read by the coordinator after the window barrier.
	panics    []any
	winEvents []int64
	winStart  []int64
	winEnd    []int64

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

// SetSpanObserver installs fn to receive one ShardSpan per executed
// shard-window, called from the coordinator between windows (no locking
// needed). Must be set before Run; nil disables. The observer cost is off
// the shards' critical path but still host time — leave it nil outside
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

// Run drives all shards to completion and returns nil if every proc
// finished, or a *DeadlockError aggregating all shards' parked procs.
// Like Scheduler.Run it may be called exactly once. The shards' goroutines
// have exited when it returns, panics included.
func (g *ShardGroup) Run() error {
	if len(g.shards) == 1 {
		return g.shards[0].Run()
	}
	if g.running {
		panic("sim: ShardGroup.Run called twice")
	}
	g.running = true

	n := len(g.shards)
	g.epochNS = timeNowUnixNano()
	g.panics = make([]any, n)
	g.winEvents = make([]int64, n)
	g.winStart = make([]int64, n)
	g.winEnd = make([]int64, n)
	g.order = make([]int, 0, n)
	g.wake = make([]chan struct{}, n)
	g.exited = make(chan struct{})
	for sid := range g.wake {
		g.wake[sid] = make(chan struct{}, 1)
		go g.shardLoop(sid)
	}
	// The join, one shard at a time: the coordinator waits on exited while
	// the goroutine whose channel it closed returns, so none is left when
	// Run returns or panics.
	defer func() {
		for _, ch := range g.wake {
			close(ch)
			<-g.exited
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

// dispatchWindow runs every shard with work in the current window and
// waits for the window barrier: the goroutines of all active shards but the
// last are woken, and the last runs on the coordinator meanwhile.
func (g *ShardGroup) dispatchWindow() {
	g.order = g.order[:0]
	for sid := range g.shards {
		if g.next[sid] <= g.limit {
			g.order = append(g.order, sid)
		}
	}
	last := len(g.order) - 1
	g.wg.Add(last)
	for _, sid := range g.order[:last] {
		g.wake[sid] <- struct{}{}
	}
	g.runShardWindow(g.order[last])
	g.wg.Wait()
}

// shardLoop is the body of shard sid's goroutine: it runs the shard through
// one window per wake, and exits when Run closes its channel.
func (g *ShardGroup) shardLoop(sid int) {
	for range g.wake[sid] {
		g.runShardWindow(sid)
		g.wg.Done()
	}
	g.exited <- struct{}{}
}

// runShardWindow executes one shard's window, capturing any escaping panic
// (re-raised on the coordinator, lowest shard first), the deterministic
// event count, and the host-time span.
func (g *ShardGroup) runShardWindow(sid int) {
	s := g.shards[sid]
	defer func() {
		if r := recover(); r != nil {
			g.panics[sid] = r
		}
	}()
	start := timeNowUnixNano()
	// The events processed this window: those popped and the sleeps that
	// took Sleep's short cut, each of which counts as one event.
	ev0 := s.counts.Popped + s.counts.ShortCut
	s.runWindow(g.limit)
	g.winEvents[sid] = s.counts.Popped + s.counts.ShortCut - ev0
	g.winStart[sid], g.winEnd[sid] = start-g.epochNS, timeNowUnixNano()-g.epochNS
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
		g.stats.ActualNS += g.winEnd[sid] - g.winStart[sid]
	}
	g.stats.Events += sum
	if sum > 0 {
		mean := float64(sum) / float64(len(g.order))
		g.imbalanceSum += float64(max) / mean
	} else {
		g.imbalanceSum += 1
	}
	if g.span != nil {
		for _, sid := range g.order {
			g.span(ShardSpan{
				Window:  g.stats.Windows - 1,
				Shard:   sid,
				StartNS: g.winStart[sid],
				EndNS:   g.winEnd[sid],
				Events:  g.winEvents[sid],
			})
		}
	}
}

// deliver moves the window's cross-shard events into their destination
// queues, shard by shard and each outbox in issue order. The destination
// queue orders them by (at, born, seq) and stamps seq here, so events of
// equal (at, born) fire in (source shard, issue) order; atBorn keeps the
// sender-side creation time as the same-time tiebreak, so an event
// interleaves with the destination's local events exactly as it would have
// on a single scheduler.
func (g *ShardGroup) deliver() {
	total := 0
	for _, s := range g.shards {
		for i, e := range s.outbox {
			e.dst.atBorn(e.at, e.born, e.h, e.op)
			s.outbox[i] = crossEvent{}
		}
		total += len(s.outbox)
		s.outbox = s.outbox[:0]
	}
	if total == 0 {
		g.stats.MergeSkips++
	}
	g.stats.Merged += int64(total)
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
	s.outbox = append(s.outbox, crossEvent{dst: dst, at: t, born: s.now, h: h, op: op})
}

// Defer is DeferFire with the func itself as the handler.
func (s *Scheduler) Defer(dst *Scheduler, t Time, fn func()) {
	s.DeferFire(dst, t, funcHandler(fn), 0)
}
