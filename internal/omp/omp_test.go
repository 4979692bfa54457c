package omp

import (
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/noise"
	"partmb/internal/sim"
)

func TestRegionJoinsAtSlowest(t *testing.T) {
	s := sim.New()
	var joinedAt sim.Time
	s.Spawn("main", func(p *sim.Proc) {
		Region(p, 4, func(tp *sim.Proc, th int) {
			tp.Sleep(sim.Duration(th+1) * sim.Millisecond)
		})
		joinedAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt != sim.Time(4*sim.Millisecond) {
		t.Fatalf("joined at %v, want 4ms", joinedAt)
	}
}

func TestRegionThreadIndices(t *testing.T) {
	s := sim.New()
	seen := make([]bool, 8)
	s.Spawn("main", func(p *sim.Proc) {
		Region(p, 8, func(tp *sim.Proc, th int) {
			seen[th] = true
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for th, ok := range seen {
		if !ok {
			t.Fatalf("thread %d never ran", th)
		}
	}
}

func TestComputeRegionAppliesPlacementAndNoise(t *testing.T) {
	s := sim.New()
	place := cluster.Place(cluster.Niagara(), 64) // oversubscribed
	nm := noise.New(noise.None, 0, 1, nil)
	var durations []sim.Duration
	var joinedAt sim.Time
	s.Spawn("main", func(p *sim.Proc) {
		durations = ComputeRegion(p, place, nm, 10*sim.Millisecond, nil)
		joinedAt = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Threads on shared cores take 2x; the join waits for them.
	if joinedAt != sim.Time(20*sim.Millisecond) {
		t.Fatalf("joined at %v, want 20ms (oversubscribed)", joinedAt)
	}
	if durations[0] != 20*sim.Millisecond || durations[30] != 10*sim.Millisecond {
		t.Fatalf("effective durations wrong: %v %v", durations[0], durations[30])
	}
}

func TestComputeRegionThen(t *testing.T) {
	s := sim.New()
	order := make([]sim.Time, 4)
	place := cluster.Place(cluster.Niagara(), 4)
	nm := noise.New(noise.None, 0, 1, nil)
	s.Spawn("main", func(p *sim.Proc) {
		ComputeRegion(p, place, nm, sim.Millisecond, func(tp *sim.Proc, th int) {
			order[th] = tp.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for th, at := range order {
		if at != sim.Time(sim.Millisecond) {
			t.Fatalf("thread %d continuation at %v, want 1ms", th, at)
		}
	}
}

func TestTeamSteps(t *testing.T) {
	s := sim.New()
	var counts [3]int
	s.Spawn("main", func(p *sim.Proc) {
		tm := NewTeam(s, "t", 3)
		for step := 0; step < 5; step++ {
			tm.Step(p, func(tp *sim.Proc, th int) {
				tp.Sleep(sim.Microsecond)
				counts[th]++
			})
		}
		tm.Close(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for th, n := range counts {
		if n != 5 {
			t.Fatalf("worker %d ran %d steps, want 5", th, n)
		}
	}
}

func TestTeamVaryingBodies(t *testing.T) {
	s := sim.New()
	var a, b int
	s.Spawn("main", func(p *sim.Proc) {
		tm := NewTeam(s, "v", 2)
		tm.Step(p, func(tp *sim.Proc, th int) { a++ })
		tm.Step(p, func(tp *sim.Proc, th int) { b++ })
		tm.Close(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 2 || b != 2 {
		t.Fatalf("bodies ran a=%d b=%d, want 2 each", a, b)
	}
}

func TestTeamMisuse(t *testing.T) {
	s := sim.New()
	s.Spawn("main", func(p *sim.Proc) {
		tm := NewTeam(s, "m", 2)
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		mustPanic("nil body", func() { tm.Step(p, nil) })
		tm.Close(p)
		mustPanic("step after close", func() { tm.Step(p, func(*sim.Proc, int) {}) })
		mustPanic("double close", func() { tm.Close(p) })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Constructor validation.
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size team did not panic")
		}
	}()
	NewTeam(s2(), "bad", 0)
}

func s2() *sim.Scheduler { return sim.New() }

func TestRegionZeroPanics(t *testing.T) {
	s := sim.New()
	var panicked bool
	s.Spawn("main", func(p *sim.Proc) {
		defer func() { panicked = recover() != nil }()
		Region(p, 0, nil)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("zero-thread region did not panic")
	}
}
