package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// ---------------------------------------------------------------------------
// Arena: what one scheduler leaves behind serves the next one built from the
// same arena, and nothing it hands over changes a simulation.
// ---------------------------------------------------------------------------

// traced builds a fork/join simulation on s whose procs log when they wake,
// and returns the log; different shapes exercise different runner and event
// counts.
func traced(s *Scheduler, team, iters int) *[]string {
	var log []string
	s.Spawn("master", func(p *Proc) {
		for it := 0; it < iters; it++ {
			var wg WaitGroup
			wg.Add(s, team)
			for w := 0; w < team; w++ {
				s.Spawn(fmt.Sprint("w", w), func(p *Proc) {
					p.Sleep(Duration(1 + (w*7+it)%5))
					log = append(log, fmt.Sprintf("%s#%d@%d", p.label(), p.id, p.Now()))
					wg.Done(s)
				})
			}
			wg.Wait(p)
			p.Sleep(0)
		}
	})
	return &log
}

// runTraced runs traced on s and returns its log, final clock and sequence.
func runTraced(t *testing.T, s *Scheduler, team, iters int) ([]string, Time, uint64) {
	t.Helper()
	log := traced(s, team, iters)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return *log, s.Now(), s.seq
}

func TestArenaRunsMatchFreshSchedulers(t *testing.T) {
	var a Arena
	defer a.Close()
	for _, shape := range [][2]int{{8, 20}, {3, 50}, {16, 5}, {8, 20}, {1, 1}} {
		wantLog, wantNow, wantSeq := runTraced(t, New(), shape[0], shape[1])
		gotLog, gotNow, gotSeq := runTraced(t, a.New(), shape[0], shape[1])
		if !reflect.DeepEqual(gotLog, wantLog) || gotNow != wantNow || gotSeq != wantSeq {
			t.Fatalf("team %d x %d: on the arena %d wakes to %v (seq %d), fresh %d to %v (seq %d)",
				shape[0], shape[1], len(gotLog), gotNow, gotSeq, len(wantLog), wantNow, wantSeq)
		}
	}
}

// The second scheduler of an arena creates no runner and no event the first
// one already made, and the arena holds the coroutines in between.
func TestArenaHandsRunnersAndEventsOn(t *testing.T) {
	before := goroutineBaseline()
	var a Arena
	s := a.New()
	runTraced(t, s, 8, 10)
	if s.runners != 9 || len(a.idle) != 9 || len(s.idle) != 0 {
		t.Fatalf("first scheduler made %d runners; arena holds %d, scheduler %d; want 9, 9, 0", s.runners, len(a.idle), len(s.idle))
	}
	if got := runtime.NumGoroutine(); got != before+9 {
		t.Fatalf("%d goroutines with 9 runners stashed, %d before", got, before)
	}
	if a.queue == nil {
		t.Fatal("arena kept no event queue")
	}
	events, chunks := len(a.free), freeChunks(a.queue)
	if events == 0 || chunks == 0 || cap(a.procs) == 0 {
		t.Fatalf("arena kept %d events, %d queue chunks, procs cap %d", events, chunks, cap(a.procs))
	}
	s = a.New()
	for _, r := range s.idle {
		if r.s != s {
			t.Fatal("a handed-over runner still points at the scheduler it came from")
		}
	}
	runTraced(t, s, 8, 10)
	if s.runners != 0 || len(a.free) != events || freeChunks(a.queue) != chunks {
		t.Fatalf("second scheduler made %d runners and the arena holds %d events and %d queue chunks, want 0, %d and %d",
			s.runners, len(a.free), freeChunks(a.queue), events, chunks)
	}
	a.Close()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after Close, %d before: stashed runners survived", got, before)
	}
	if len(a.idle) != 0 || len(a.free) != 0 || a.queue != nil {
		t.Fatal("Close left the arena holding something")
	}
}

// freeChunks counts the chunks on q's free list.
func freeChunks(q *eventQueue) int {
	n := 0
	for c := q.free; c != nil; c = c.next {
		n++
	}
	return n
}

// A dead drive discards what it borrowed instead of giving it back, and the
// arena's next scheduler still runs the simulation a fresh one runs.
func TestArenaDeadDriveDiscards(t *testing.T) {
	before := goroutineBaseline()
	wantLog, wantNow, _ := runTraced(t, New(), 4, 10)
	stuck := func(p *Proc) {
		var never Completion
		never.Wait(p)
	}
	var a Arena
	runTraced(t, a.New(), 4, 10)
	for name, dead := range map[string]func(s *Scheduler){
		"deadlock": func(s *Scheduler) {
			forkJoin(s, 4, 3)
			s.Spawn("stuck", stuck)
			var dl *DeadlockError
			if err := s.Run(); !errors.As(err, &dl) {
				t.Fatalf("Run = %v, want a deadlock", err)
			}
		},
		"panic": func(s *Scheduler) {
			forkJoin(s, 4, 3)
			s.Spawn("stuck", stuck)
			s.Spawn("bad", func(p *Proc) {
				p.Sleep(2 * Microsecond)
				panic("boom")
			})
			if panicValue(func() { s.Run() }) != "boom" {
				t.Fatal("Run did not panic")
			}
		},
	} {
		dead(a.New())
		if got := runtime.NumGoroutine(); got != before || len(a.idle) != 0 {
			t.Fatalf("%s: %d goroutines (%d before), arena holds %d runners; want every runner stopped", name, got, before, len(a.idle))
		}
		if log, now, _ := runTraced(t, a.New(), 4, 10); !reflect.DeepEqual(log, wantLog) || now != wantNow {
			t.Fatalf("%s: the next scheduler ran to %v, a fresh one to %v", name, now, wantNow)
		}
	}
	a.Close()
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
}

// A scheduler that never finishes a drive — its cell failed before Run, or
// after a partial RunUntil — keeps the runners it took until the arena's next
// New or Close stops them.
func TestArenaReclaimsUnfinishedSchedulers(t *testing.T) {
	before := goroutineBaseline()
	var a Arena
	runTraced(t, a.New(), 4, 5)
	for _, reclaim := range []func(){func() { a.New() }, a.Close} {
		s := a.New()
		forkJoin(s, 4, 5) // takes the master's runner, never run
		s = a.New()
		forkJoin(s, 8, 5)
		s.runUntil(Time(3)) // parks procs on stashed and on new runners
		reclaim()
		if got := runtime.NumGoroutine(); got != before {
			t.Fatalf("%d goroutines after reclaiming, %d before", got, before)
		}
	}
}

func TestArenaCloseStopsStashedRunners(t *testing.T) {
	before := goroutineBaseline()
	var a Arena
	runTraced(t, a.New(), 16, 3)
	if got := runtime.NumGoroutine(); got != before+len(a.idle) || len(a.idle) != 17 {
		t.Fatalf("%d goroutines, %d before, %d runners stashed; want 17 stashed", got, before, len(a.idle))
	}
	a.Close()
	a.Close() // idempotent
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
	// A closed arena starts empty.
	if log, _, _ := runTraced(t, a.New(), 2, 2); len(log) != 4 {
		t.Fatalf("%d wakes on a closed arena, want 4", len(log))
	}
	a.Close()
	var nilArena *Arena
	nilArena.Close()
	if s := nilArena.New(); s.arena != nil {
		t.Fatal("the nil arena's scheduler has an arena")
	}
}

// An arena may serve its simulations from different goroutines, one at a
// time, as engine lanes hand it on; -race checks the handover.
func TestArenaMovesBetweenGoroutines(t *testing.T) {
	var a Arena
	defer a.Close()
	wantLog, _, _ := runTraced(t, New(), 4, 10)
	for i := 0; i < 4; i++ {
		done := make(chan []string)
		go func() {
			s := a.New()
			log := traced(s, 4, 10)
			if err := s.Run(); err != nil {
				t.Error(err)
			}
			done <- *log
		}()
		if log := <-done; !reflect.DeepEqual(log, wantLog) {
			t.Fatalf("run %d on another goroutine differs", i)
		}
	}
}

// Rand(s) yields the rand.NewSource(s) stream, also from a generator that
// served another seed before; generators are lent until the next New.
func TestArenaRandMatchesNewSource(t *testing.T) {
	var a Arena
	defer a.Close()
	a.Rand(99).Int63() // the generator has served another seed
	a.New()
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		got, want := a.Rand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			g := [3]float64{float64(got.Intn(1000)), got.Float64(), got.NormFloat64()}
			w := [3]float64{float64(want.Intn(1000)), want.Float64(), want.NormFloat64()}
			if g != w {
				t.Fatalf("seed %d, draw %d: %v, want %v", seed, i, g, w)
			}
		}
		a.New()
	}
	first, second := a.Rand(1), a.Rand(1)
	if first == second || len(a.rngs) != 2 {
		t.Fatalf("two generators lent at once share one (%d made)", len(a.rngs))
	}
	a.New()
	if a.Rand(5) != first {
		t.Fatal("New did not take back the lent generators")
	}
}

// What a scheduler Keeps reaches the arena's next scheduler, once, only after
// a clean drain: a dead drive, a scheduler that never finished its drive, a
// Close and the nil arena all drop it.
func TestArenaKeepsStateOnlyAcrossCleanDrains(t *testing.T) {
	var a Arena
	defer a.Close()
	keep := func(s *Scheduler, v any) *Scheduler {
		s.Keep("replaced")
		s.Keep(v)
		return s
	}
	run := func(s *Scheduler) *Scheduler {
		forkJoin(s, 2, 2)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	run(keep(a.New(), 1))
	s := a.New()
	if got, again := s.Kept(), s.Kept(); got != 1 || again != nil {
		t.Fatalf("Kept = %v then %v, want 1 then nil", got, again)
	}
	run(s) // kept nothing
	if got := a.New().Kept(); got != nil {
		t.Fatalf("a scheduler that kept nothing handed on %v", got)
	}

	for name, end := range map[string]func(s *Scheduler){
		"deadlock": func(s *Scheduler) {
			s.Spawn("stuck", func(p *Proc) {
				var never Completion
				never.Wait(p)
			})
			s.Run()
		},
		"panic": func(s *Scheduler) {
			s.Spawn("bad", func(p *Proc) { panic("boom") })
			panicValue(func() { s.Run() })
		},
		"never driven":  func(*Scheduler) {},
		"partly driven": func(s *Scheduler) { forkJoin(s, 2, 2); s.runUntil(0) },
		"closed":        func(s *Scheduler) { run(s); a.Close() },
	} {
		run(keep(a.New(), 2)) // the state the next one would have inherited
		s := a.New()
		if got := s.Kept(); got != 2 {
			t.Fatalf("%s: inherited %v, want 2", name, got)
		}
		end(keep(s, 3))
		if got := a.New().Kept(); got != nil {
			t.Errorf("%s: the next scheduler inherited %v, want nothing", name, got)
		}
	}

	var none *Arena
	run(keep(none.New(), 4))
	if got := none.New().Kept(); got != nil {
		t.Fatalf("the nil arena handed on %v", got)
	}
}

// A scheduler counts the events it pops, the sleeps that skip the queue and
// its coroutine resumes, and its arena sums them over the schedulers whose
// drive has ended.
func TestEventCounts(t *testing.T) {
	var a Arena
	defer a.Close()
	for round := 1; round <= 2; round++ {
		s := a.New()
		s.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(Microsecond) // nothing due before the wake: the short cut
			}
			p.Sleep(20 * Microsecond) // the handler is due first: a pushed wake
		})
		s.at(Time(10*Microsecond), func() {})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Pops: the start wake, the handler and the last sleep's wake.
		want := EventCounts{Popped: 3, ShortCut: 5, Resumes: 2}
		if s.counts != want {
			t.Fatalf("round %d: scheduler counted %+v, want %+v", round, s.counts, want)
		}
		want = EventCounts{Popped: 3 * int64(round), ShortCut: 5 * int64(round), Resumes: 2 * int64(round)}
		if got := a.Events(); got != want {
			t.Fatalf("round %d: arena summed %+v, want %+v", round, got, want)
		}
	}
}

// shardedTraced builds a simulation on g: every shard runs a fork/join team
// whose members log their wakes and send a message to the next shard, which
// logs its arrival. It returns the per-shard logs, each written only by its
// own shard.
func shardedTraced(g *ShardGroup, team, iters int) [][]string {
	n := g.Shards()
	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		s, dst := g.Shard(i), g.Shard((i+1)%n)
		s.Spawn("master", func(p *Proc) {
			for it := 0; it < iters; it++ {
				var wg WaitGroup
				wg.Add(s, team)
				for w := 0; w < team; w++ {
					s.Spawn(fmt.Sprint("w", w), func(p *Proc) {
						p.Sleep(Duration(1 + (w*7+it+i)%5))
						logs[i] = append(logs[i], fmt.Sprintf("%s#%d@%d", p.label(), p.id, p.Now()))
						at := p.Now().Add(g.Lookahead() + Duration(w))
						s.Defer(dst, at, func() {
							j := (i + 1) % n
							logs[j] = append(logs[j], fmt.Sprintf("from %d@%d", i, at))
						})
						wg.Done(s)
					})
				}
				wg.Wait(p)
			}
		})
	}
	return logs
}

// A shard group built from an arena draws each shard from its slot, gives
// every shard's runners and events back after a clean Run, runs exactly as
// a group on no arena, and discards what it borrowed when its Run dies.
func TestArenaShardGroups(t *testing.T) {
	before := goroutineBaseline()
	run := func(a *Arena, shards, team, iters int) ([][]string, *ShardGroup) {
		g := NewShardGroup(a, shards, 10)
		g.setWorkers(2)
		logs := shardedTraced(g, team, iters)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return logs, g
	}
	var a Arena
	for _, shape := range [][3]int{{2, 4, 5}, {4, 3, 4}, {1, 4, 5}, {4, 3, 4}, {2, 4, 5}, {2, 2, 3}} {
		want, _ := run(nil, shape[0], shape[1], shape[2])
		events := a.Events()
		got, g := run(&a, shape[0], shape[1], shape[2])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: on the arena %q, on none %q", shape, got, want)
		}
		if ev, st := a.Events(), g.Stats(); shape[0] > 1 && ev.Popped+ev.ShortCut-events.Popped-events.ShortCut != st.Events {
			t.Fatalf("%v: the arena counted %+v more events, the group %d", shape, ev, st.Events)
		}
		for i := 0; i < shape[0]; i++ {
			slot := a.slot(i)
			if s := g.Shard(i); s.arena != nil || slot.queue == nil || len(slot.idle) < shape[1]+1 {
				t.Fatalf("%v: shard %d gave back %d runners, want at least %d", shape, i, len(slot.idle), shape[1]+1)
			}
		}
	}
	// The shapes above repeat, so the last group made no runner of its own.
	if _, g := run(&a, 2, 2, 3); g.Shard(0).runners+g.Shard(1).runners != 0 {
		t.Fatal("a group after an equal one on the arena made runners")
	}
	if len(a.slots) != 3 {
		t.Fatalf("%d shard slots after four-shard groups, want 3", len(a.slots))
	}

	stuck := func(p *Proc) {
		var never Completion
		never.Wait(p)
	}
	for name, dead := range map[string]func(g *ShardGroup){
		"deadlock": func(g *ShardGroup) {
			g.Shard(1).Spawn("stuck", stuck)
			var dl *DeadlockError
			if err := g.Run(); !errors.As(err, &dl) {
				t.Fatalf("Run = %v, want a deadlock", err)
			}
		},
		"panic": func(g *ShardGroup) {
			g.Shard(0).Spawn("stuck", stuck)
			g.Shard(1).Spawn("bad", func(p *Proc) {
				p.Sleep(2 * Microsecond)
				panic("boom")
			})
			if panicValue(func() { g.Run() }) != "boom" {
				t.Fatal("Run did not panic")
			}
		},
	} {
		g := NewShardGroup(&a, 4, 10)
		g.setWorkers(2)
		shardedTraced(g, 3, 4)
		dead(g)
		if got := settleGoroutines(before); got != before {
			t.Fatalf("%s: %d goroutines, %d before; want every runner stopped", name, got, before)
		}
		for i := 0; i < 4; i++ {
			if n := len(a.slot(i).idle); n != 0 {
				t.Fatalf("%s: shard %d's slot holds %d runners", name, i, n)
			}
		}
		want, _ := run(nil, 4, 3, 4)
		if got, _ := run(&a, 4, 3, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the next group on the arena ran differently", name)
		}
	}
	a.Close()
	if got := settleGoroutines(before); got != before {
		t.Fatalf("%d goroutines after Close, %d before: a shard slot kept its runners", got, before)
	}
	if a.slots != nil || a.Events() != (EventCounts{}) {
		t.Fatal("Close left shard slots or counts behind")
	}
}
