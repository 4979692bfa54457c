package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Lazy park reasons: deadlock diagnostics must be byte-identical to the
// strings the kernel built eagerly before the allocation-free rewrite.
// ---------------------------------------------------------------------------

func TestDeadlockMessagesByteIdentical(t *testing.T) {
	s := New()
	var m Mutex
	c := NewCond(&m)
	var wg WaitGroup
	wg.Add(s, 1)
	b := NewBarrier(2)
	var done Completion
	s.Spawn("mutex-holder", func(p *Proc) {
		m.Lock(p)
		done.Wait(p)
	})
	s.Spawn("mutex-waiter", func(p *Proc) { m.Lock(p) })
	s.Spawn("cond-waiter", func(p *Proc) {
		m2 := &Mutex{}
		c2 := NewCond(m2)
		m2.Lock(p)
		c2.Wait(p)
	})
	s.Spawn("wg-waiter", func(p *Proc) { wg.Wait(p) })
	s.Spawn("barrier-waiter", func(p *Proc) { b.Await(p) })
	_ = c
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	want := []string{
		"barrier-waiter(#5): barrier gen 0",
		"cond-waiter(#3): cond wait",
		"mutex-holder(#1): completion wait",
		"mutex-waiter(#2): mutex wait",
		"wg-waiter(#4): waitgroup wait",
	}
	if len(de.Blocked) != len(want) {
		t.Fatalf("blocked = %v, want %v", de.Blocked, want)
	}
	for i := range want {
		if de.Blocked[i] != want[i] {
			t.Errorf("blocked[%d] = %q, want %q", i, de.Blocked[i], want[i])
		}
	}
	wantErr := fmt.Sprintf("sim: deadlock at t=%v with %d blocked procs: %s",
		Duration(0), len(want), strings.Join(want, "; "))
	if de.Error() != wantErr {
		t.Errorf("Error() = %q, want %q", de.Error(), wantErr)
	}
}

// A sleeping proc can never appear in a DeadlockError (its wake event keeps
// the queue non-empty), so the sleep reason is locked down directly.
func TestSleepParkReasonFormat(t *testing.T) {
	p := &Proc{parkKind: parkSleep, parkA: int64(5 * Millisecond), parkB: int64(Time(0).Add(5 * Millisecond))}
	want := fmt.Sprintf("sleep %v until %v", 5*Millisecond, Time(0).Add(5*Millisecond))
	if got := p.parkReason(); got != want {
		t.Fatalf("sleep reason = %q, want %q", got, want)
	}
	if want != "sleep 5ms until 5000000" {
		t.Fatalf("format drifted: %q", want)
	}
}

// ---------------------------------------------------------------------------
// Allocation-free fast path: driving a sleep/wake loop must not allocate
// per event (the freelist recycles events; wakes carry no closures; park
// reasons are codes, not strings).
// ---------------------------------------------------------------------------

func TestSleepWakeAllocationFree(t *testing.T) {
	const iters = 5000
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < iters; i++ {
			p.Sleep(Microsecond)
		}
	})
	// Warm the coroutine and the freelist with the first few events
	// via a bounded drive, then measure the steady state.
	s.runUntil(Time(10 * Microsecond))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	// ~0.04 allocs per sleep of slack for runtime-internal noise; the old
	// kernel spent 7 allocs per sleep here.
	if allocs > iters/25 {
		t.Errorf("driving %d sleeps allocated %d objects, want ~0", iters, allocs)
	}
}

// Three procs whose sleeps interleave — some take Sleep's short cut, the rest
// push a wake and yield — must produce the same timeline as the path where
// every wake goes through the drive loop (runSlow). The name predates coroutine procs, when a fast path handed
// the token from proc to proc.
func TestDirectHandoffMatchesSlowPath(t *testing.T) {
	build := func() (*Scheduler, *[]string) {
		s := New()
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			s.Spawn(name, func(p *Proc) {
				for i := 0; i < 50; i++ {
					p.Sleep(Duration(1 + i%3))
					log = append(log, fmt.Sprintf("%s@%d", name, p.Now()))
				}
			})
		}
		return s, &log
	}
	fast, fastLog := build()
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow, slowLog := build()
	if err := slow.runSlow(); err != nil {
		t.Fatal(err)
	}
	if len(*fastLog) != len(*slowLog) {
		t.Fatalf("log lengths differ: %d vs %d", len(*fastLog), len(*slowLog))
	}
	for i := range *fastLog {
		if (*fastLog)[i] != (*slowLog)[i] {
			t.Fatalf("timelines diverge at %d: %q vs %q", i, (*fastLog)[i], (*slowLog)[i])
		}
	}
	if fast.Now() != slow.Now() {
		t.Fatalf("final clocks differ: %v vs %v", fast.Now(), slow.Now())
	}
}

// Sleep's short cut (nothing due before the wake, so the queue is skipped) is
// taken by a proc whose sleeps are interleaved with callbacks it schedules
// itself; the callbacks must fire when and in the order they do on the path
// that pushes every wake, and both paths must hand out the same sequence
// numbers.
func TestSleepShortCutMatchesSlowPath(t *testing.T) {
	build := func() (*Scheduler, *[]string) {
		s := New()
		var log []string
		note := func(what string) func() {
			return func() { log = append(log, fmt.Sprintf("%s@%d", what, s.Now())) }
		}
		s.Spawn("a", func(p *Proc) {
			for i := 0; i < 40; i++ {
				s.at(p.Now().Add(Duration(2+i%4)), note(fmt.Sprint("cb", i)))
				p.Sleep(Duration(1 + i%3)) // sometimes before the callback, sometimes at or past it
				note("a")()
			}
		})
		return s, &log
	}
	fast, fastLog := build()
	if err := fast.Run(); err != nil {
		t.Fatal(err)
	}
	slow, slowLog := build()
	if err := slow.runSlow(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*fastLog, *slowLog) {
		t.Fatalf("timelines differ:\n short cut %v\n every wake pushed %v", *fastLog, *slowLog)
	}
	if fast.seq != slow.seq || fast.Now() != slow.Now() {
		t.Fatalf("seq %d at %v with the short cut, seq %d at %v without", fast.seq, fast.Now(), slow.seq, slow.Now())
	}
}

// runSlow drives like Run with a horizon below every event time, so Sleep's
// short cut never applies and every wake is pushed and popped by the loop.
func (s *Scheduler) runSlow() error {
	s.startDrive(-1)
	defer s.endDrive(true, false)
	s.drive(maxTime)
	return s.deadlock()
}

// ---------------------------------------------------------------------------
// Handler events: At is AtFire with the func as the handler, so the two
// share one order and one allocation-free path.
// ---------------------------------------------------------------------------

// opLog is a Handler that records the ops it is fired with.
type opLog []int

func (l *opLog) Fire(op int) { *l = append(*l, op) }

func TestAtAndAtFireShareSchedulingOrder(t *testing.T) {
	s := New()
	var got opLog
	for op := 0; op < 8; op++ {
		op := op
		if op%2 == 0 {
			s.AtFire(Time(5), &got, op)
		} else {
			s.at(Time(5), func() { got.Fire(op) })
		}
	}
	s.AtFire(Time(4), &got, -1) // earlier time, scheduled last: fires first
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (opLog{-1, 0, 1, 2, 3, 4, 5, 6, 7}); !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// ticker is a Handler that reschedules itself n times.
type ticker struct {
	s *Scheduler
	n int
}

func (k *ticker) Fire(op int) {
	if k.n--; k.n > 0 {
		k.s.AtFire(k.s.Now().Add(Microsecond), k, op)
	}
}

func TestHandlerEventsAllocationFree(t *testing.T) {
	run := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			s := New()
			s.AtFire(0, &ticker{s: s, n: n}, 0)
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := run(1000), run(2000); a != b {
		t.Errorf("1000 more handler events cost %v allocations, want 0", b-a)
	}
}

// ---------------------------------------------------------------------------
// The drive re-entrancy contract (Run / RunUntil).
// ---------------------------------------------------------------------------

func TestRunAfterPartialRunUntilFinishes(t *testing.T) {
	s := New()
	var ticks []Time
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(Millisecond)
			ticks = append(ticks, p.Now())
		}
	})
	if s.runUntil(Time(2 * Millisecond)) {
		t.Fatal("RunUntil(2ms) drained early")
	}
	if len(ticks) != 2 {
		t.Fatalf("ticks after partial drive = %d, want 2", len(ticks))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 6 || s.Now() != Time(6*Millisecond) {
		t.Fatalf("after Run: %d ticks, now %v; want 6 ticks at 6ms", len(ticks), Duration(s.Now()))
	}
}

func TestRunUntilIncrementalDrives(t *testing.T) {
	s := New()
	var ticks int
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Millisecond)
			ticks++
		}
	})
	for i := 1; i <= 4; i++ {
		drained := s.runUntil(Time(i) * Time(Millisecond))
		if ticks != i {
			t.Fatalf("after RunUntil(%dms): %d ticks", i, ticks)
		}
		if drained != (i == 4) {
			t.Fatalf("RunUntil(%dms) drained = %v", i, drained)
		}
	}
}

func TestDriveAfterDrainPanics(t *testing.T) {
	cases := []struct {
		name  string
		drive func(s *Scheduler)
	}{
		{"Run", func(s *Scheduler) { s.Run() }},
		{"RunUntil", func(s *Scheduler) { s.runUntil(Time(Second)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			s.Spawn("p", func(p *Proc) { p.Sleep(Microsecond) })
			if !s.runUntil(Time(Second)) {
				t.Fatal("queue did not drain")
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after drained drive did not panic", c.name)
				}
			}()
			c.drive(s)
		})
	}
}

func TestDriveReentryFromEventPanics(t *testing.T) {
	cases := []struct {
		name  string
		drive func(s *Scheduler)
	}{
		{"Run", func(s *Scheduler) { s.Run() }},
		{"RunUntil", func(s *Scheduler) { s.runUntil(Time(Second)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			var reentryPanic interface{}
			s.at(0, func() {
				defer func() { reentryPanic = recover() }()
				c.drive(s)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if reentryPanic == nil {
				t.Fatalf("%s from within an event callback did not panic", c.name)
			}
		})
	}
}

// The run loop's monotonicity guard is defense-in-depth behind At's own
// check; RunUntil historically lacked it. Forge a past event to prove all
// drive loops now refuse to move the clock backwards.
func TestRunUntilMonotonicityGuard(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) { p.Sleep(Millisecond) })
	if s.runUntil(Time(Millisecond)) != true {
		t.Fatal("expected drained drive")
	}
	s.running = false // re-arm the drive for the forged event
	// Push an event stamped before the clock straight onto the queue,
	// bypassing At's scheduling-time check.
	s.queue.push(s.newEvent(0, nil, funcHandler(func() {}), 0))
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil fired an event in the past without panicking")
		}
	}()
	s.runUntil(Time(2 * Millisecond))
}

// ---------------------------------------------------------------------------
// Event queue: the radix queue must dequeue in (time, seq) order and the
// freelist must actually recycle (queue_test.go fuzzes the full order).
// ---------------------------------------------------------------------------

func TestEventQueueOrdering(t *testing.T) {
	s := New()
	times := []Time{7, 3, 3, 9, 1, 5, 3, 8, 2, 6, 4, 1, 9, 0, 5}
	var fired []Time
	order := map[Time][]int{}
	for i, at := range times {
		i := i
		at := at
		order[at] = append(order[at], i)
		s.at(at, func() {
			fired = append(fired, at)
			got := order[at][0]
			order[at] = order[at][1:]
			if got != i {
				t.Errorf("same-time events fired out of scheduling order: got %d, want %d", i, got)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of time order: %v", fired)
		}
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestEventFreelistRecycles(t *testing.T) {
	s := New()
	for i := 0; i < 8; i++ {
		s.at(Time(i), func() {})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.free) == 0 {
		t.Fatal("freelist empty after a drive; events are not recycled")
	}
	free := len(s.free)
	s.running = false
	s.at(s.now, func() {})
	if len(s.free) != free-1 {
		t.Fatalf("scheduling did not reuse a freelist event: %d -> %d", free, len(s.free))
	}
}
