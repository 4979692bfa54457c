package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// setProcs sets GOMAXPROCS to n until the test ends. Tests that call it must
// not be parallel: GOMAXPROCS is process-wide.
func setProcs(t *testing.T, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// poolWorkload spawns a deterministic, deliberately imbalanced cross-shard
// workload on g and returns a function that snapshots its observable
// outcome: per-shard logs of (time, value) pairs appended by event
// execution. Shard 0 is the hot shard (fan bursts each round); the others
// run a light token ring through shard 0. Any two runs of the same shard
// count must produce identical logs, whatever GOMAXPROCS is.
func poolWorkload(g *ShardGroup, rounds, burst int) func() []string {
	n := g.Shards()
	logs := make([][]string, n)
	const la = Duration(1000)
	for i := 0; i < n; i++ {
		i := i
		s := g.Shard(i)
		s.Spawn(fmt.Sprintf("load%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				logs[i] = append(logs[i], fmt.Sprintf("s%d r%d @%d", i, r, p.Now()))
				if i == 0 {
					// Hot shard: burst of local events plus a fan of cross
					// events to every other shard.
					for k := 0; k < burst; k++ {
						k := k
						s.at(p.Now(), func() { logs[0] = append(logs[0], fmt.Sprintf("burst%d", k)) })
					}
					for d := 1; d < n; d++ {
						d := d
						s.Defer(g.Shard(d), p.Now().Add(la), func() {
							logs[d] = append(logs[d], fmt.Sprintf("x0->%d", d))
						})
					}
				} else if r%2 == 1 {
					// Light shards reply to the hot shard every other round.
					s.Defer(g.Shard(0), p.Now().Add(la), func() {
						logs[0] = append(logs[0], fmt.Sprintf("x%d->0", i))
					})
				}
				p.Sleep(la)
			}
		})
	}
	return func() []string {
		var all []string
		for _, l := range logs {
			all = append(all, l...)
		}
		return all
	}
}

// TestShardPoolDeterminism pins the core contract of the shard goroutines:
// the same workload run at every GOMAXPROCS produces an identical
// event-execution log. How many shards the host runs at once may only change
// wall-clock time.
func TestShardPoolDeterminism(t *testing.T) {
	const shards, rounds, burst = 8, 20, 50
	run := func(procs int) []string {
		setProcs(t, procs)
		g := NewShardGroup(nil, shards, 1000)
		snap := poolWorkload(g, rounds, burst)
		if err := g.Run(); err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		return snap()
	}
	want := run(1)
	if len(want) == 0 {
		t.Fatal("workload produced no events")
	}
	for _, procs := range []int{1, 2, 4} {
		got := run(procs)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d log entries, want %d", procs, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("GOMAXPROCS=%d: log[%d] = %q, want %q", procs, i, got[i], want[i])
			}
		}
	}
}

// TestShardPoolStats checks the execution counters of a known workload:
// windows and events are counted, cross events are delivered, and the
// imbalance ratio reflects the hot shard.
func TestShardPoolStats(t *testing.T) {
	g := NewShardGroup(nil, 4, 1000)
	snap := poolWorkload(g, 10, 100)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	_ = snap()
	st := g.Stats()
	if st.Shards != 4 || st.Steals != 0 {
		t.Fatalf("identity counters wrong: %+v", st)
	}
	if st.Windows == 0 || st.Events == 0 {
		t.Fatalf("no windows or events counted: %+v", st)
	}
	if st.Merged == 0 {
		t.Fatalf("cross events were produced but Merged == 0: %+v", st)
	}
	// The hot shard processes ~100x the events of the light shards, so the
	// mean window imbalance must be well above balanced.
	if st.ImbalanceMean < 1.5 {
		t.Fatalf("hot-shard workload reports near-balanced windows: %+v", st)
	}
}

// TestShardPoolSpans exercises the span observer: every executed
// shard-window is reported exactly once, in coordinator order, on its
// shard's lane, with event counts that sum to the group's.
func TestShardPoolSpans(t *testing.T) {
	g := NewShardGroup(nil, 4, 1000)
	var spans []ShardSpan
	g.SetSpanObserver(func(sp ShardSpan) { spans = append(spans, sp) })
	snap := poolWorkload(g, 10, 20)
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	_ = snap()
	st := g.Stats()
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}
	var events int64
	last := ShardSpan{Window: -1}
	laneEnd := make([]int64, st.Shards)
	for _, sp := range spans {
		if sp.Window < last.Window || sp.Window == last.Window && sp.Shard <= last.Shard {
			t.Fatalf("span (window %d, shard %d) after (window %d, shard %d)", sp.Window, sp.Shard, last.Window, last.Shard)
		}
		last = sp
		if sp.Shard < 0 || sp.Shard >= st.Shards {
			t.Fatalf("span shard %d outside group of %d", sp.Shard, st.Shards)
		}
		// A shard's lane is one goroutine at a time: its windows never
		// overlap.
		if sp.EndNS < sp.StartNS || sp.StartNS < laneEnd[sp.Shard] {
			t.Fatalf("span %+v overlaps its lane, which ended at %d", sp, laneEnd[sp.Shard])
		}
		laneEnd[sp.Shard] = sp.EndNS
		events += sp.Events
	}
	if last.Window != st.Windows-1 {
		t.Fatalf("last span window %d, want %d", last.Window, st.Windows-1)
	}
	if events != st.Events {
		t.Fatalf("span events sum %d != stats events %d", events, st.Events)
	}
}

// TestShardDeliveryOrder pins the barrier's delivery order. Shards 2, 0 and
// 1 send shard 3 events of equal (at, born) in one window, and they fire in
// shard order, then issue order; an event shard 2 created earlier fires
// before all of them, although its shard comes last.
func TestShardDeliveryOrder(t *testing.T) {
	const la = Duration(1000)
	const at = Time(5000)
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		g := NewShardGroup(nil, 4, la)
		dst := g.Shard(3)
		var order []string
		send := func(src int, what string) {
			g.Shard(src).Defer(dst, at, func() { order = append(order, what) })
		}
		g.Shard(2).at(0, func() { send(2, "2 born 0") })
		for _, src := range []int{2, 0, 1} {
			src := src
			g.Shard(src).at(100, func() {
				send(src, fmt.Sprintf("%d first", src))
				send(src, fmt.Sprintf("%d second", src))
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"2 born 0", "0 first", "0 second", "1 first", "1 second", "2 first", "2 second"}
		if !reflect.DeepEqual(order, want) {
			t.Errorf("GOMAXPROCS=%d: order %q, want %q", procs, order, want)
		}
		if st := g.Stats(); st.Windows != 2 || st.Merged != 7 {
			t.Errorf("GOMAXPROCS=%d: %d windows delivered %d events, want 2 and 7", procs, st.Windows, st.Merged)
		}
	}
}

// TestShardPoolSettersContract pins the configuration lifecycle: the span
// observer is frozen once Run starts.
func TestShardPoolSettersContract(t *testing.T) {
	g := NewShardGroup(nil, 2, 1000)
	for i := 0; i < 2; i++ {
		s := g.Shard(i)
		s.Spawn("noop", func(p *Proc) { _ = s })
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetSpanObserver after Run did not panic")
		}
	}()
	g.SetSpanObserver(func(ShardSpan) {})
}
