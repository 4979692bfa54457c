package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Panics: a proc runs on a coroutine of the driving goroutine, so a panic
// inside it comes out of the drive with its original value.
// ---------------------------------------------------------------------------

// panicValue runs f and returns what it panicked with (nil if it did not).
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func TestProcPanicPropagatesOutOfRun(t *testing.T) {
	boom := errors.New("boom")
	s := New()
	s.Spawn("bystander", func(p *Proc) { p.Sleep(Second) })
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic(boom)
	})
	if got := panicValue(func() { s.Run() }); got != boom {
		t.Fatalf("Run panicked with %v, want the proc's own value %v", got, boom)
	}
	// The panic ended the drive for good, like a drained queue would have.
	if got := panicValue(func() { s.Run() }); got == nil {
		t.Fatal("a scheduler that panicked out of Run accepted a second Run")
	}
}

func TestProcPanicPropagatesOutOfShardGroupRun(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		boom := fmt.Errorf("boom at GOMAXPROCS %d", procs)
		g := NewShardGroup(nil, 4, Microsecond)
		for i := 0; i < 4; i++ {
			i := i
			g.Shard(i).Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
				for k := 0; k < 10; k++ {
					p.Sleep(Microsecond)
					if i == 2 && k == 5 {
						panic(boom)
					}
				}
			})
		}
		// The panic crosses a goroutine on the way: shard 2's goroutine
		// recovers it and the coordinator raises it again.
		if got := panicValue(func() { g.Run() }); got != boom {
			t.Fatalf("GOMAXPROCS=%d: ShardGroup.Run panicked with %v, want %v", procs, got, boom)
		}
	}
}

// ---------------------------------------------------------------------------
// Lifetime of the runner pool.
// ---------------------------------------------------------------------------

// kernelGoroutines counts the goroutines, the caller's aside, that are
// inside this package's code: coroutine runners, parked or stashed, and
// shard goroutines that have not returned. runtime.Stack stops the world to
// list them, so the count is exact. A goroutine that has returned and is
// only exiting is not counted, nor is any goroutine of the test framework,
// such as the previous test's on its way out.
func kernelGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, r := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(r, "\n") {
			// A frame in the kernel's methods. The wrapper of a go statement
			// is left only once its function has returned, and the "created
			// by" line names the creator.
			if strings.HasPrefix(line, "partmb/internal/sim.(*") && !strings.Contains(line, ".gowrap") {
				n++
				break
			}
		}
	}
	return n
}

// forkJoin spawns a master that forks and joins a team of `team` procs per
// iteration — the shape of the paper's per-iteration OpenMP region.
func forkJoin(s *Scheduler, team, iters int) {
	s.Spawn("master", func(p *Proc) {
		for it := 0; it < iters; it++ {
			var wg WaitGroup
			wg.Add(s, team)
			for w := 0; w < team; w++ {
				w := w
				s.Spawn("worker", func(p *Proc) {
					p.Sleep(Duration(1 + w))
					wg.Done(s)
				})
			}
			wg.Wait(p)
		}
	})
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	before := kernelGoroutines()
	s := New()
	forkJoin(s, 8, 50)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := kernelGoroutines(); got != before {
		t.Fatalf("%d goroutines after Run, %d before: coroutines leaked", got, before)
	}
	if len(s.idle) != 0 {
		t.Fatalf("%d runners still idle after a drained Run", len(s.idle))
	}
}

func TestRunUntilThenRunLeavesNoGoroutines(t *testing.T) {
	before := kernelGoroutines()
	s := New()
	forkJoin(s, 4, 20)
	if s.runUntil(Time(10)) {
		t.Fatal("RunUntil(10ns) drained a 20-iteration run")
	}
	// A partial drive keeps its coroutines: the parked procs need theirs and
	// the idle ones are about to be reused.
	if kernelGoroutines() <= before {
		t.Fatal("no coroutines alive between RunUntil and Run")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := kernelGoroutines(); got != before {
		t.Fatalf("%d goroutines after RunUntil+Run, %d before", got, before)
	}
}

func TestShardGroupRunLeavesNoGoroutines(t *testing.T) {
	before := kernelGoroutines()
	g := NewShardGroup(nil, 4, Microsecond)
	for i := 0; i < 4; i++ {
		forkJoin(g.Shard(i), 3, 20)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if got := kernelGoroutines(); got != before {
		t.Fatalf("%d goroutines after ShardGroup.Run, %d before", got, before)
	}
}

func TestProcPanicLeavesNoIdleRunners(t *testing.T) {
	s := New()
	s.Spawn("short", func(p *Proc) {})
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	if panicValue(func() { s.Run() }) == nil {
		t.Fatal("Run did not panic")
	}
	if len(s.idle) != 0 {
		t.Fatalf("%d idle runners survived a drive that panicked", len(s.idle))
	}
}

// TestForkJoinReusesRunners is the reason the pool exists: a team forked
// 1000 times costs one coroutine per member (plus the master), not one per
// fork.
func TestForkJoinReusesRunners(t *testing.T) {
	s := New()
	forkJoin(s, 8, 1000)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.procSeq != 1+8*1000 {
		t.Fatalf("spawned %d procs, want %d", s.procSeq, 1+8*1000)
	}
	if s.runners > 9 {
		t.Fatalf("8001 procs in teams of 8 created %d runners, want at most 9", s.runners)
	}
}

// A drive that ends with procs still parked — a deadlock, or a panic
// unwinding through it — unwinds those procs (their deferred calls run) and
// releases their coroutines along with the idle ones.
func TestDeadDriveReleasesEveryCoroutine(t *testing.T) {
	before := kernelGoroutines()
	unwound := 0
	stuck := func(p *Proc) {
		defer func() { unwound++ }()
		var never Completion
		never.Wait(p)
	}

	s := New()
	s.Spawn("done", func(p *Proc) { p.Sleep(Microsecond) })
	s.Spawn("stuck", stuck)
	var dl *DeadlockError
	if err := s.Run(); !errors.As(err, &dl) || len(dl.Blocked) != 1 {
		t.Fatalf("Run = %v, want a deadlock with one blocked proc", err)
	}
	if got := kernelGoroutines(); got != before || unwound != 1 {
		t.Fatalf("deadlocked Run: %d goroutines (started with %d), %d procs unwound, want 1", got, before, unwound)
	}

	s = New()
	s.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	s.Spawn("stuck", stuck)
	s.Spawn("bad", func(p *Proc) {
		p.Sleep(Microsecond)
		// Its coroutine has not been entered when the drive dies.
		s.Spawn("unstarted", func(p *Proc) { t.Error("a proc spawned by the panicking proc ran") })
		panic("boom")
	})
	if got := panicValue(func() { s.Run() }); got != "boom" {
		t.Fatalf("Run panicked with %v, want boom", got)
	}
	if got := kernelGoroutines(); got != before || unwound != 2 {
		t.Fatalf("panicked Run: %d goroutines (started with %d), %d procs unwound, want 2", got, before, unwound)
	}

	g := NewShardGroup(nil, 4, Microsecond)
	for i := 0; i < 4; i++ {
		i := i
		g.Shard(i).Spawn("stuck", stuck)
		g.Shard(i).Spawn(fmt.Sprintf("r%d", i), func(p *Proc) {
			for k := 0; k < 10; k++ {
				p.Sleep(Microsecond)
				if i == 2 && k == 5 {
					panic("boom")
				}
			}
		})
	}
	if got := panicValue(func() { g.Run() }); got != "boom" {
		t.Fatalf("ShardGroup.Run panicked with %v, want boom", got)
	}
	if got := kernelGoroutines(); got != before || unwound != 6 {
		t.Fatalf("panicked ShardGroup.Run: %d goroutines (started with %d), %d procs unwound, want 6", got, before, unwound)
	}
}
