package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("new scheduler clock = %v, want 0", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != Time(5*Millisecond) {
		t.Fatalf("woke at %v, want 5ms", Duration(at))
	}
}

func TestSequentialSleeps(t *testing.T) {
	s := New()
	var marks []Time
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(Duration(i+1) * Microsecond)
			marks = append(marks, p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{1000, 3000, 6000, 10000}
	for i, w := range want {
		if marks[i] != w {
			t.Errorf("mark[%d] = %d, want %d", i, marks[i], w)
		}
	}
}

func TestZeroSleepYields(t *testing.T) {
	s := New()
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventOrderingIsDeterministic(t *testing.T) {
	run := func() []int {
		s := New()
		var got []int
		for i := 0; i < 50; i++ {
			i := i
			// All events at the same instant must fire in scheduling order.
			s.at(Time(Millisecond), func() { got = append(got, i) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != i || b[i] != i {
			t.Fatalf("nondeterministic same-time ordering: %v vs %v", a, b)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.Spawn("p", func(p *Proc) { p.Sleep(Millisecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.at(0, func() {})
}

// TestGuardMessages trips each misuse guard that no other test reaches and
// checks the guard's own message, so a dropped guard cannot pass on some
// later panic.
func TestGuardMessages(t *testing.T) {
	for _, c := range []struct {
		want string
		f    func()
	}{
		{"recursive Mutex.Lock", func() {
			s := New()
			var m Mutex
			s.Spawn("p", func(p *Proc) { m.Lock(p); m.Lock(p) })
			s.Run()
		}},
		{"negative WaitGroup counter", func() {
			var wg WaitGroup
			wg.Add(New(), -1)
		}},
		{"barrier parties must be positive", func() { NewBarrier(0) }},
		{"before now", func() {
			s := New()
			s.Spawn("p", func(p *Proc) {
				p.Sleep(Millisecond)
				s.wakeAt(0, p)
			})
			s.Run()
		}},
	} {
		if v := panicValue(c.f); !strings.Contains(fmt.Sprint(v), c.want) {
			t.Errorf("panicked with %v, want a panic about %q", v, c.want)
		}
	}
}

func TestNegativeSleepPanics(t *testing.T) {
	s := New()
	var panicked bool
	s.Spawn("p", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		p.Sleep(-1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("negative sleep did not panic")
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := New()
	var childAt Time
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(2 * Microsecond)
		p.Scheduler().Spawn("child", func(c *Proc) {
			c.Sleep(3 * Microsecond)
			childAt = c.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != Time(5*Microsecond) {
		t.Fatalf("child finished at %v, want 5us", Duration(childAt))
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New()
	var m Mutex
	s.Spawn("holder", func(p *Proc) {
		m.Lock(p)
		// Never unlocks; the waiter below deadlocks.
		var c Completion
		c.Wait(p)
	})
	s.Spawn("waiter", func(p *Proc) {
		m.Lock(p)
	})
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked procs = %v, want 2 entries", de.Blocked)
	}
}

func TestMutexExcludes(t *testing.T) {
	s := New()
	var m Mutex
	inside := 0
	maxInside := 0
	for i := 0; i < 8; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			m.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(Microsecond)
			inside--
			m.Unlock(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max procs inside critical section = %d, want 1", maxInside)
	}
	if s.Now() != Time(8*Microsecond) {
		t.Fatalf("serialized critical sections ended at %v, want 8us", Duration(s.Now()))
	}
}

func TestMutexFIFO(t *testing.T) {
	s := New()
	var m Mutex
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Duration(i)) // stagger arrival: w0 first
			m.Lock(p)
			order = append(order, i)
			p.Sleep(Microsecond)
			m.Unlock(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("lock grant order = %v, want FIFO", order)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s := New()
	var m Mutex
	var panicked bool
	s.Spawn("a", func(p *Proc) {
		defer func() { panicked = recover() != nil }()
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("unlock of unheld mutex did not panic")
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	s := New()
	var m Mutex
	c := NewCond(&m)
	ready := 0
	woken := 0
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			m.Lock(p)
			ready++
			for woken == 0 {
				c.Wait(p)
			}
			woken--
			m.Unlock(p)
		})
	}
	s.Spawn("signaler", func(p *Proc) {
		p.Sleep(Millisecond)
		m.Lock(p)
		woken = 3
		for i := 0; i < 3; i++ {
			c.Signal(p)
		}
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 0 {
		t.Fatalf("woken = %d, want 0 (all waiters released)", woken)
	}
}

func TestWaitGroup(t *testing.T) {
	s := New()
	var wg WaitGroup
	wg.Add(s, 3)
	doneAt := Time(-1)
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(Duration(i+1) * Millisecond)
			wg.Done(p.Scheduler())
		})
	}
	s.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(3*Millisecond) {
		t.Fatalf("waitgroup released at %v, want 3ms", Duration(doneAt))
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	s := New()
	released := false
	var wg WaitGroup
	s.Spawn("w", func(p *Proc) {
		wg.Wait(p) // counter already zero: returns immediately
		released = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !released {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestBarrierReleasesTogether(t *testing.T) {
	s := New()
	b := NewBarrier(4)
	var releases []Time
	for i := 0; i < 4; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * Millisecond)
			b.Await(p)
			releases = append(releases, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range releases {
		if r != Time(3*Millisecond) {
			t.Fatalf("releases = %v, want all at 3ms", releases)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	s := New()
	b := NewBarrier(2)
	var hits int
	for i := 0; i < 2; i++ {
		i := i
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Sleep(Duration(i+1) * Microsecond)
				b.Await(p)
				hits++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if hits != 10 {
		t.Fatalf("barrier rounds completed = %d, want 10", hits)
	}
}

func TestCompletion(t *testing.T) {
	s := New()
	var c Completion
	var waitedAt, lateAt Time
	s.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		waitedAt = p.Now()
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		c.Fire(p.Scheduler())
	})
	s.Spawn("late", func(p *Proc) {
		p.Sleep(9 * Microsecond)
		c.Wait(p) // already fired: no block
		lateAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if waitedAt != Time(7*Microsecond) {
		t.Fatalf("waiter released at %v, want 7us", Duration(waitedAt))
	}
	if lateAt != Time(9*Microsecond) {
		t.Fatalf("late waiter at %v, want 9us", Duration(lateAt))
	}
}

func TestCompletionDoubleFirePanics(t *testing.T) {
	s := New()
	var panicked bool
	s.Spawn("p", func(p *Proc) {
		var c Completion
		c.Fire(p.Scheduler())
		defer func() { panicked = recover() != nil }()
		c.Fire(p.Scheduler())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("double fire did not panic")
	}
}

// Reset re-arms a completion for another round. A waiter the last Fire woke
// returns even if the completion was re-armed before it resumed; resetting a
// completion procs still wait on panics.
func TestCompletionReset(t *testing.T) {
	s := New()
	var c Completion
	var released []Time
	s.Spawn("waiter", func(p *Proc) {
		for round := 0; round < 3; round++ {
			c.Wait(p)
			released = append(released, p.Now())
		}
	})
	s.Spawn("firer", func(p *Proc) {
		for round := 0; round < 3; round++ {
			p.Sleep(Microsecond)
			c.Fire(s)
			c.Reset() // the waiter is woken but has not run yet
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{1000, 2000, 3000}; !slices.Equal(released, want) {
		t.Fatalf("waiter released at %v, want %v", released, want)
	}

	s = New()
	s.Spawn("waiter", func(p *Proc) { c.Wait(p) })
	s.Spawn("resetter", func(p *Proc) { c.Reset() })
	if got := panicValue(func() { s.Run() }); got != "sim: Completion reset with waiters" {
		t.Fatalf("Reset with a waiter panicked with %v", got)
	}
}

// A proc's value is reused by the next Spawn on its runner, and a wake
// still pending for the finished proc must not resume the new one.
func TestStaleWakeSkipsNextProcOnRunner(t *testing.T) {
	s := New()
	var first, second *Proc
	var woke Time
	s.Spawn("first", func(p *Proc) {
		first = p
		s.wakeAt(5, p) // still pending when the proc returns at 0
	})
	s.at(1, func() {
		second = s.Spawn("second", func(p *Proc) {
			p.Sleep(10)
			woke = p.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if second != first || s.runners != 1 {
		t.Fatalf("second proc at %p on %d runners, want the first one's %p on 1", second, s.runners, first)
	}
	if woke != 11 {
		t.Fatalf("second proc's 10ns sleep from 1ns ended at %dns, want 11ns", woke)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var ticks []Time
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(Millisecond)
			ticks = append(ticks, p.Now())
		}
	})
	drained := s.runUntil(Time(3 * Millisecond))
	if drained {
		t.Fatal("RunUntil reported drained with events pending")
	}
	if len(ticks) != 3 {
		t.Fatalf("ticks after RunUntil(3ms) = %d, want 3", len(ticks))
	}
}

// Property: for any multiset of sleep durations spread over procs, the
// simulation ends at the max per-proc sum, and each proc observes
// monotonically nondecreasing time.
func TestQuickSleepSums(t *testing.T) {
	f := func(raw [][]uint16) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true // constrain the space; quick still explores widely
		}
		s := New()
		var maxSum Duration
		ok := true
		for pi, ds := range raw {
			if len(ds) > 20 {
				ds = ds[:20]
			}
			var sum Duration
			for _, d := range ds {
				sum += Duration(d)
			}
			if sum > maxSum {
				maxSum = sum
			}
			ds := ds
			s.Spawn(fmt.Sprintf("p%d", pi), func(p *Proc) {
				last := p.Now()
				for _, d := range ds {
					p.Sleep(Duration(d))
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok && s.Now() == Time(maxSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mutex-protected increments never lose updates regardless of the
// interleaving produced by random sleeps.
func TestQuickMutexCounter(t *testing.T) {
	f := func(seed int64, nProcs uint8, nIters uint8) bool {
		procs := int(nProcs%8) + 1
		iters := int(nIters%16) + 1
		rng := rand.New(rand.NewSource(seed))
		delays := make([][]Duration, procs)
		for i := range delays {
			delays[i] = make([]Duration, iters)
			for j := range delays[i] {
				delays[i][j] = Duration(rng.Intn(1000))
			}
		}
		s := New()
		var m Mutex
		counter := 0
		for i := 0; i < procs; i++ {
			i := i
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < iters; j++ {
					p.Sleep(delays[i][j])
					m.Lock(p)
					c := counter
					p.Sleep(Duration(rng.Intn(10)))
					counter = c + 1
					m.Unlock(p)
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return counter == procs*iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{-500, "-500ns"},
		{2500, "2.5us"},
		{Millisecond, "1ms"},
		{1500 * Millisecond, "1.5s"},
		{-1500 * Millisecond, "-1.5s"},
		{math.MinInt64, "-9.223e+09s"},
		{math.MaxInt64, "9.223e+09s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(100)
	b := a.Add(50)
	if b != 150 {
		t.Fatalf("Add: got %d", b)
	}
	if b.Sub(a) != 50 {
		t.Fatalf("Sub: got %d", b.Sub(a))
	}
}

func TestDeadlockErrorNamesBlockedProcs(t *testing.T) {
	s := New()
	var c Completion
	s.Spawn("stuck-proc", func(p *Proc) { c.Wait(p) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck-proc") ||
		!strings.Contains(de.Blocked[0], "completion wait") {
		t.Fatalf("diagnostics = %v", de.Blocked)
	}
	if de.Error() == "" {
		t.Fatal("empty error string")
	}
}
