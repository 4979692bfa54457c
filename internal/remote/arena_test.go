package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"partmb/internal/engine"
	"partmb/internal/mpi"
	"partmb/internal/sim"
	"partmb/internal/stats"
)

// Workers run their tasks on arenas: every task loop builds its cells'
// simulations on one sim.Arena, and nothing that carries over changes a
// value or outlives the worker.

// taskCapture records every task a runner ships and answers ErrNoWorkers, so
// the runner computes the cell itself.
type taskCapture struct {
	mu    sync.Mutex
	tasks []engine.RemoteTask
}

func (x *taskCapture) Execute(_ context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.tasks = append(x.tasks, t)
	return engine.RemoteResult{}, engine.ErrNoWorkers
}

const stuckKind, forkKind = "test.remote.stuck", "test.remote.fork"

// stuckCell's simulation deadlocks with an MPI receive posted, so the arena
// its task loop runs it on must discard the world it built.
var stuckCell = engine.NewCell(stuckKind,
	func(n int) (int, *stats.RunConfig, bool) { return n, nil, false },
	func(a *sim.Arena, n int, _ []int64) (int, error) {
		s := a.New()
		w := mpi.NewWorld(s, mpi.DefaultConfig(n))
		w.Launch("stuck", func(c *mpi.Comm, p *sim.Proc) { c.Recv(p, (c.Rank()+1)%n, 0) })
		return 0, s.Run()
	}, nil)

// TestWorkerArenaReuseChangesNoResult: a task loop serves one cell of every
// kind three times in a shuffled order, with deadlocking and panicking tasks
// mixed in, on one arena. Every value is byte-identical to the kind run on
// no arena.
func TestWorkerArenaReuseChangesNoResult(t *testing.T) {
	x := &taskCapture{}
	rn := engine.New(engine.Workers(1), engine.WithExecutor(x))
	for _, c := range fixedCases() {
		if _, err := c.run(rn); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if _, err := stuckCell.Run(rn, 3); err == nil {
		t.Fatal("the stuck cell did not deadlock")
	}
	want := map[int]string{}
	for i, task := range x.tasks {
		if task.Kind == stuckKind {
			continue
		}
		v, err := engine.LookupKind(task.Kind)(nil, task.Config)
		if err != nil {
			t.Fatalf("%s: %v", task.Kind, err)
		}
		raw, _ := json.Marshal(v)
		want[i] = string(raw)
	}
	if len(want) < len(allKinds) {
		t.Fatalf("captured %d tasks, want one of each of the %d kinds at least", len(want), len(allKinds))
	}
	tasks := append(x.tasks, engine.RemoteTask{Kind: "test.panic", Config: json.RawMessage(`{}`)})

	w := NewWorker(WorkerConfig{})
	var a sim.Arena
	defer a.Close()
	rng := rand.New(rand.NewSource(32))
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(tasks)) {
			task := tasks[i]
			res := w.execute(&a, Task{Schema: WireSchema, ID: int64(i + 1), Key: task.Key, Kind: task.Kind, Config: task.Config})
			if v, ok := want[i]; ok {
				if res.Err != "" || string(res.Value) != v {
					t.Fatalf("round %d, %s: on the worker's arena %s (err %q), on none %s", round, task.Kind, res.Value, res.Err, v)
				}
			} else if res.Err == "" {
				t.Fatalf("round %d, %s: succeeded on the worker's arena", round, task.Kind)
			}
		}
	}
}

// forkCfg shapes forkCell: a team of Team procs forked Iters times.
type forkCfg struct{ Team, Iters int }

// forkCell leaves Team+1 coroutines on its arena; its value is its end time.
var forkCell = engine.NewCell(forkKind,
	func(c forkCfg) (forkCfg, *stats.RunConfig, bool) { return c, nil, false },
	func(a *sim.Arena, c forkCfg, _ []int64) (int64, error) {
		s := a.New()
		s.Spawn("master", func(p *sim.Proc) {
			for it := 0; it < c.Iters; it++ {
				var wg sim.WaitGroup
				wg.Add(s, c.Team)
				for k := 0; k < c.Team; k++ {
					s.Spawn("worker", func(p *sim.Proc) {
						p.Sleep(sim.Duration(1 + k%3))
						wg.Done(s)
					})
				}
				wg.Wait(p)
			}
		})
		err := s.Run()
		return int64(s.Now()), err
	}, nil)

// coroutines counts the goroutines carrying simulation procs, parked or idle.
func coroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("partmb/internal/sim.(*runner).loop"))
}

// TestWorkerArenasCloseWithTheWorker: the coroutines two task loops keep on
// their arenas between tasks are stopped when the worker stops.
func TestWorkerArenasCloseWithTheWorker(t *testing.T) {
	c, hs := testHarness(t, 30*time.Second)
	before := coroutines()
	w := NewWorker(WorkerConfig{Coordinator: hs.URL, Name: "w", Parallel: 2, Heartbeat: 50 * time.Millisecond, PollWait: 200 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	waitUntil(t, 5*time.Second, "worker registered", func() bool { return w.ID() != "" })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := forkCfg{Team: 4 + i%3, Iters: 3}
			raw, _ := json.Marshal(struct {
				Cfg forkCfg `json:"cfg"`
			}{cfg})
			v, _ := engine.LookupKind(forkKind)(nil, raw)
			want, _ := json.Marshal(v)
			res, err := c.Execute(context.Background(), engine.RemoteTask{Key: forkCell.Key(cfg), Kind: forkKind, Config: raw})
			if err != nil || !bytes.Equal(res.Value, want) {
				t.Errorf("task %d: %s, %v; want %s", i, res.Value, err, want)
			}
		}()
	}
	wg.Wait()
	if held := coroutines() - before; held < 5 {
		t.Errorf("%d coroutines kept between tasks, want at least the 5 of one task's team", held)
	}
	cancel()
	<-done
	if now := coroutines(); now != before {
		t.Errorf("%d coroutines before the worker, %d after it stopped", before, now)
	}
}
