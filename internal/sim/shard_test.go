package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestShardGroupSingleIsPlainScheduler: a one-shard group is the sequential
// kernel — no group attached, direct Run allowed.
func TestShardGroupSingleIsPlainScheduler(t *testing.T) {
	g := NewShardGroup(nil, 1, 0)
	s := g.Shard(0)
	if s.group != nil {
		t.Fatalf("single-shard group attached itself to the scheduler")
	}
	var ran bool
	s.Spawn("p", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		ran = true
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || s.Now() != Time(5*Microsecond) {
		t.Fatalf("ran=%v now=%v", ran, s.Now())
	}
}

// TestShardGroupTokenRing passes a token around shards with Defer; the final
// virtual time is exactly hops*lookahead, proving cross-shard events land at
// their timestamps.
func TestShardGroupTokenRing(t *testing.T) {
	const shards = 4
	const rounds = 8
	la := 900 * Nanosecond
	g := NewShardGroup(nil, shards, la)

	hops := 0
	var hop func(i int)
	hop = func(i int) {
		hops++
		if hops >= shards*rounds {
			return
		}
		next := (i + 1) % shards
		s := g.Shard(i)
		s.Defer(g.Shard(next), s.Now().Add(la), func() { hop(next) })
	}
	g.Shard(0).at(0, func() { hop(0) })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if hops != shards*rounds {
		t.Fatalf("hops = %d, want %d", hops, shards*rounds)
	}
	want := Time(Duration(shards*rounds-1) * la)
	if g.now() != want {
		t.Fatalf("final time %v, want %v", g.now(), want)
	}
}

// TestShardGroupCompletionAcrossWindows: the canonical cross-shard pattern —
// a proc on shard B parks on a Completion owned by B, fired by a deferred
// event from shard A.
func TestShardGroupCompletionAcrossWindows(t *testing.T) {
	la := Microsecond
	g := NewShardGroup(nil, 2, la)
	a, b := g.Shard(0), g.Shard(1)

	var done Completion
	var wokeAt Time
	b.Spawn("waiter", func(p *Proc) {
		done.Wait(p)
		wokeAt = p.Now()
	})
	a.Spawn("sender", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		at := p.Now().Add(la)
		p.Scheduler().Defer(b, at, func() { done.Fire(b) })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != Time(4*Microsecond) {
		t.Fatalf("waiter woke at %v, want 4us", wokeAt)
	}
}

// TestShardGroupDeterministic runs the same two-shard workload twice and
// requires identical event traces regardless of OS scheduling.
func TestShardGroupDeterministic(t *testing.T) {
	run := func() []string {
		la := 500 * Nanosecond
		g := NewShardGroup(nil, 2, la)
		// One log per shard: events append to their own shard's log (shared
		// state across shards would itself be a race).
		logs := make([][]string, 2)
		for i := 0; i < 2; i++ {
			i := i
			s := g.Shard(i)
			s.Spawn(fmt.Sprintf("gen%d", i), func(p *Proc) {
				// A deterministic but irregular schedule of cross- and
				// same-shard events.
				seed := uint64(i + 1)
				for k := 0; k < 50; k++ {
					seed = seed*6364136223846793005 + 1442695040888963407
					d := Duration(seed%1700) * Nanosecond
					p.Sleep(d)
					at := p.Now().Add(la + Duration(seed%300))
					dstID := int(seed>>32) % 2
					k := k
					p.Scheduler().Defer(g.Shard(dstID), at, func() {
						logs[dstID] = append(logs[dstID], fmt.Sprintf("%d:%d@%d->%d", i, k, at, dstID))
					})
				}
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		log := append(append([]string(nil), logs[0]...), logs[1]...)
		sort.Strings(log)
		return log
	}
	first := run()
	for rep := 0; rep < 3; rep++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged from first run", rep+1)
		}
	}
}

// TestShardGroupDeadlockAggregates: parked procs on several shards surface
// in one DeadlockError.
func TestShardGroupDeadlockAggregates(t *testing.T) {
	g := NewShardGroup(nil, 2, Microsecond)
	var c0, c1 Completion
	g.Shard(0).Spawn("a", func(p *Proc) { c0.Wait(p) })
	g.Shard(1).Spawn("b", func(p *Proc) { c1.Wait(p) })
	err := g.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked = %v, want both procs", de.Blocked)
	}
	joined := strings.Join(de.Blocked, ";")
	if !strings.Contains(joined, "a(#") || !strings.Contains(joined, "b(#") {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// TestShardGroupContract pins the drive re-entrancy contract for sharded
// runs: direct drives of a member panic and Run is once-only.
func TestShardGroupContract(t *testing.T) {
	mustPanic := func(name, want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: no panic", name)
			}
			if !strings.Contains(fmt.Sprint(r), want) {
				t.Fatalf("%s: panic %q, want substring %q", name, r, want)
			}
		}()
		fn()
	}

	g := NewShardGroup(nil, 2, Microsecond)
	mustPanic("member Run", "drive it with ShardGroup.Run", func() { _ = g.Shard(0).Run() })
	mustPanic("member RunUntil", "drive it with ShardGroup.Run", func() { g.Shard(1).runUntil(10) })

	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	mustPanic("Run twice", "called twice", func() { _ = g.Run() })

	mustPanic("zero shards", "must be positive", func() { NewShardGroup(nil, 0, Microsecond) })
	mustPanic("no lookahead", "positive lookahead", func() { NewShardGroup(nil, 2, 0) })

	// Re-entering a drive from inside a window keeps the existing panic; the
	// group re-raises window panics on the coordinator goroutine.
	g2 := NewShardGroup(nil, 2, Microsecond)
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "re-entered") {
				t.Fatalf("window re-entry panic = %v", r)
			}
		}()
		g2.Shard(0).at(0, func() { _ = g2.Shard(0).Run() })
		_ = g2.Run()
	}()
}

// TestDeferContract pins Defer's safety checks: local Defer is At, foreign
// schedulers are rejected, and lookahead violations panic.
func TestDeferContract(t *testing.T) {
	g := NewShardGroup(nil, 2, Microsecond)
	a, b := g.Shard(0), g.Shard(1)

	ran := false
	a.Defer(a, 0, func() { ran = true }) // local: plain At

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "violates lookahead") {
				t.Fatalf("lookahead panic = %v", r)
			}
		}()
		a.Defer(b, Time(500*Nanosecond), func() {})
	}()

	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "not a shard of the same group") {
				t.Fatalf("foreign panic = %v", r)
			}
		}()
		a.Defer(New(), Time(Microsecond), func() {})
	}()

	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("local Defer did not run")
	}
}

// TestShardGroupWavefrontHorizon: when one shard is far behind, the ahead
// shard still gets a window bounded by the behind shard's horizon — and the
// behind shard can still affect it. Checks the horizon math is per-shard,
// not a single global window.
func TestShardGroupWavefrontHorizon(t *testing.T) {
	la := Microsecond
	g := NewShardGroup(nil, 2, la)
	a, b := g.Shard(0), g.Shard(1)

	// Shard B has dense local work far in the future; shard A sends it a
	// message that must interleave correctly.
	var order []string
	b.at(Time(10*Microsecond), func() { order = append(order, "b-local") })
	a.at(0, func() {
		a.Defer(b, Time(5*Microsecond), func() { order = append(order, "from-a") })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"from-a", "b-local"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// A cross-shard event carries its sender-side creation time, so among the
// destination's events of the same instant it fires where it would have on
// one scheduler: after those created before it, ahead of those created after
// it — whether it was scheduled with Defer or with DeferFire.
func TestDeferFireInterleavesLikeDefer(t *testing.T) {
	const at = Time(20 * Microsecond)
	run := func(shards int, fire bool) []string {
		g := NewShardGroup(nil, shards, Microsecond)
		a, b := g.Shard(0), g.Shard(shards-1)
		var order []string
		note := func(what string) func() { return func() { order = append(order, what) } }
		// b creates local events for the instant at t=1us and t=3us; a
		// creates its event for b in between, at t=2us.
		b.at(Time(Microsecond), func() { b.at(at, note("b@1us")) })
		b.at(Time(3*Microsecond), func() { b.at(at, note("b@3us")) })
		a.at(Time(2*Microsecond), func() {
			if fire {
				a.DeferFire(b, at, funcHandler(note("a@2us")), 0)
			} else {
				a.Defer(b, at, note("a@2us"))
			}
		})
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	want := []string{"b@1us", "a@2us", "b@3us"}
	for _, shards := range []int{1, 2} {
		for _, fire := range []bool{false, true} {
			if got := run(shards, fire); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d DeferFire=%v: order %v, want %v", shards, fire, got, want)
			}
		}
	}
}
