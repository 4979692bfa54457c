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
		Region(p, 4, Func(func(tp *sim.Proc, th int) {
			tp.Sleep(sim.Duration(th+1) * sim.Millisecond)
		}))
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
		Region(p, 8, Func(func(tp *sim.Proc, th int) {
			seen[th] = true
		}))
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
		durations = ComputeRegion(p, NewCompute(place, nm, 10*sim.Millisecond, Func(func(*sim.Proc, int) {})))
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
		ComputeRegion(p, NewCompute(place, nm, sim.Millisecond, Func(func(tp *sim.Proc, th int) {
			order[th] = tp.Now()
		})))
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
		tm := NewTeam(s, 3, 5, Func(func(tp *sim.Proc, th int) {
			tp.Sleep(sim.Microsecond)
			counts[th]++
		}))
		for step := 0; step < 5; step++ {
			tm.Step(p)
		}
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

// TestTeamVaryingBodies drives one team through steps that do different
// work: the body reads what to do from state the caller sets between steps.
func TestTeamVaryingBodies(t *testing.T) {
	s := sim.New()
	var a, b int
	step := 0
	s.Spawn("main", func(p *sim.Proc) {
		tm := NewTeam(s, 2, 2, Func(func(tp *sim.Proc, th int) {
			if step == 0 {
				a++
			} else {
				b++
			}
		}))
		tm.Step(p)
		step++
		tm.Step(p)
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
		tm := NewTeam(s, 2, 1, Func(func(*sim.Proc, int) {}))
		tm.Step(p)
		defer func() {
			if recover() == nil {
				t.Errorf("step past the last did not panic")
			}
		}()
		tm.Step(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Constructor validation.
	for name, f := range map[string]func(){
		"zero-size team": func() { NewTeam(s2(), 0, 1, Func(func(*sim.Proc, int) {})) },
		"nil body":       func() { NewTeam(s2(), 2, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
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
