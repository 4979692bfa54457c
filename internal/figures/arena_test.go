package figures

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/patterns"
	"partmb/internal/sim"
	"partmb/internal/snap"
	"partmb/internal/stats"
)

// captureExec records every cell a runner ships and answers ErrNoWorkers, so
// the runner computes the cell itself.
type captureExec struct {
	mu    sync.Mutex
	tasks []engine.RemoteTask
}

func (x *captureExec) Execute(_ context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.tasks = append(x.tasks, t)
	return engine.RemoteResult{}, engine.ErrNoWorkers
}

// replayed is one captured cell: run computes it on a runner's lane, fresh
// computes it outside any Sweep, on no arena.
type replayed struct {
	name    string
	run     func(rn *engine.Runner) (any, error)
	fresh   func() (any, error)
	wantErr func(error) bool // nil: the cell must succeed
}

// replayAs decodes a captured task's configuration into C.
func replayAs[C any](t *testing.T, task engine.RemoteTask,
	run func(*engine.Runner, C, []int64) (any, error), fresh func(C, []int64) (any, error)) replayed {
	var w struct {
		Cfg  C       `json:"cfg"`
		Args []int64 `json:"args"`
	}
	if err := json.Unmarshal(task.Config, &w); err != nil {
		t.Fatalf("%s: %v", task.Kind, err)
	}
	return replayed{
		name:  fmt.Sprintf("%s %s", task.Kind, task.Key[:12]),
		run:   func(rn *engine.Runner) (any, error) { return run(rn, w.Cfg, w.Args) },
		fresh: func() (any, error) { return fresh(w.Cfg, w.Args) },
	}
}

// quickCells captures the cells of the ten quick figures.
func quickCells(t *testing.T) []replayed {
	x := &captureExec{}
	env := Env{Runner: engine.New(engine.WithExecutor(x))}
	for _, fig := range Numbers() {
		if _, err := env.Generate(fig, quick()); err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
	}
	var cells []replayed
	for _, task := range x.tasks {
		switch task.Kind {
		case "core.Run":
			cells = append(cells, replayAs(t, task,
				func(rn *engine.Runner, c core.Config, _ []int64) (any, error) { return core.RunCached(rn, c) },
				func(c core.Config, _ []int64) (any, error) { return core.Run(c) }))
		case "patterns.Sweep3D":
			cells = append(cells, replayAs(t, task,
				func(rn *engine.Runner, c patterns.SweepConfig, _ []int64) (any, error) {
					return patterns.Sweep3D.Run(rn, c)
				},
				func(c patterns.SweepConfig, _ []int64) (any, error) { return patterns.RunSweep3D(c) }))
		case "patterns.Halo3D":
			cells = append(cells, replayAs(t, task,
				func(rn *engine.Runner, c patterns.HaloConfig, _ []int64) (any, error) {
					return patterns.Halo3D.Run(rn, c)
				},
				func(c patterns.HaloConfig, _ []int64) (any, error) { return patterns.RunHalo3D(c) }))
		case "snap.Profile":
			cells = append(cells, replayAs(t, task,
				func(rn *engine.Runner, c snap.Config, a []int64) (any, error) {
					pts, err := snap.ProfileScaling(rn, c, []int{int(a[0])})
					if err != nil {
						return nil, err
					}
					return pts[0], nil
				},
				func(c snap.Config, a []int64) (any, error) { return snap.Profile(c, int(a[0])) }))
		default:
			t.Fatalf("quick figures ran a %s cell the test cannot replay", task.Kind)
		}
	}
	if len(cells) != 318 {
		t.Fatalf("captured %d cells, want the 318 a quick pass runs", len(cells))
	}
	return cells
}

// deadCfg is the configuration of deadCell: Team procs finish, one parks
// forever (Panic false: a deadlock) or one panics (Panic true).
type deadCfg struct {
	Team  int
	Panic bool
}

// deadCell's drive dies, so it discards what it borrowed from its arena.
var deadCell = engine.NewCell("figures.test.dead",
	func(c deadCfg) (deadCfg, *stats.RunConfig, bool) { return c, nil, false },
	func(a *sim.Arena, c deadCfg, _ []int64) (int, error) {
		s := a.New()
		for i := 0; i < c.Team; i++ {
			s.Spawn("worker", func(p *sim.Proc) { p.Sleep(sim.Duration(i + 1)) })
		}
		s.Spawn("stuck", func(p *sim.Proc) {
			if c.Panic {
				p.Sleep(sim.Microsecond)
				panic("cell panics mid-drive")
			}
			var never sim.Completion
			never.Wait(p)
		})
		return 0, s.Run()
	}, nil)

// litterCell's simulation drains cleanly but leaves its MPI world full:
// messages nobody receives, receives nothing matches, a native init whose
// peer never comes, a persistent receive started and never completed, and
// partitioned requests larger than any figure's. The next world built on its
// arena inherits all of it and must clear it. Its value is its end time.
var litterCell = engine.NewCell("figures.test.litter",
	func(ranks int) (int, *stats.RunConfig, bool) { return ranks, nil, false },
	func(a *sim.Arena, ranks int, _ []int64) (int64, error) {
		s := a.New()
		cfg := mpi.DefaultConfig(ranks)
		cfg.ThreadMode = mpi.Multiple
		w := mpi.NewWorld(s, cfg)
		w.Launch("litter", func(c *mpi.Comm, p *sim.Proc) {
			me, next := c.Rank(), (c.Rank()+1)%ranks
			pr := c.PsendInit(p, next, 1, 512, 64)
			rr := c.PrecvInit(p, (me+ranks-1)%ranks, 1, 512, 64)
			c.Barrier(p)
			pr.Start(p)
			rr.Start(p)
			for i := 0; i < 512; i++ {
				pr.Pready(p, i)
			}
			c.IsendBytes(p, next, 2, 1<<20) // rendezvous, never received
			c.IsendBytes(p, next, 3, 64)    // eager, never received
			c.Irecv(p, next, 4)             // never matched
			c.RecvInit(p, next, 5).Start(p) // started, never matched
			pr.Wait(p)
			rr.Wait(p)
		})
		err := s.Run()
		return int64(s.Now()), err
	}, nil)

func deadCells() []replayed {
	var cells []replayed
	for _, panics := range []bool{false, true} {
		c := deadCfg{Team: 5, Panic: panics}
		cells = append(cells, replayed{
			name: fmt.Sprintf("dead drive %+v", c),
			run:  func(rn *engine.Runner) (any, error) { return deadCell.Run(rn, c) },
			wantErr: func(err error) bool {
				var dl *sim.DeadlockError
				if c.Panic {
					return err != nil && !errors.As(err, &dl)
				}
				return errors.As(err, &dl)
			},
		})
	}
	return cells
}

// TestArenaReuseChangesNoResult: the quick figures' core, patterns and SNAP
// cells run in a shuffled order on one engine lane — so on one arena, each
// cell starting with the coroutines, events, generators and MPI world of
// whichever cell ran before it — among cells whose drives die and cells that
// leave their world littered. Every result is the one a run on no arena
// gives, and the lane's arena goes with the Sweep.
func TestArenaReuseChangesNoResult(t *testing.T) {
	cells := quickCells(t)
	want := make([]any, len(cells))
	for i, c := range cells {
		v, err := c.fresh()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[i] = v
	}
	order := rand.New(rand.NewSource(31)).Perm(len(cells))
	dead := deadCells()
	for k := range order {
		switch k % 40 {
		case 7:
			// A dead drive, then a normal cell, on the same arena.
			cells, want = append(cells, dead[k/40%len(dead)]), append(want, nil)
		case 23:
			// A world left full of MPI litter, then a normal cell.
			ranks := 2 + k/40%8
			litter := replayed{
				name:  fmt.Sprintf("litter on %d ranks", ranks),
				run:   func(rn *engine.Runner) (any, error) { return litterCell.Run(rn, ranks) },
				fresh: func() (any, error) { return litterCell.Run(engine.New(engine.WithoutCache()), ranks) },
			}
			v, err := litter.fresh()
			if err != nil {
				t.Fatalf("%s: %v", litter.name, err)
			}
			cells, want = append(cells, litter), append(want, v)
		default:
			continue
		}
		order = append(order[:k], append([]int{len(cells) - 1}, order[k:]...)...)
	}

	rn := engine.New(engine.Workers(1), engine.WithoutCache())
	before := runtime.NumGoroutine()
	held := 0
	got := make([]any, len(cells))
	_, err := rn.Sweep(context.Background(), len(order), nil, func(_ context.Context, k int) (any, error) {
		i := order[k]
		c := cells[i]
		v, err := c.run(rn)
		if c.wantErr != nil {
			if !c.wantErr(err) {
				return nil, fmt.Errorf("%s: err = %v", c.name, err)
			}
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		got[i] = v
		held = max(held, runtime.NumGoroutine()-before)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: on a reused arena %+v, on none %+v", cells[i].name, got[i], want[i])
		}
	}
	// Between cells the arena holds the coroutines it hands on, beside the
	// lane's goroutine; the Sweep closes it.
	if held <= 1 {
		t.Errorf("at most %d goroutines beside the Sweep's between cells: the arena keeps no coroutines", held)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines before the Sweep, %d after", before, now)
	}
}
