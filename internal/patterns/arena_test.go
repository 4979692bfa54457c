package patterns

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/sim"
)

// arenaCell is one motif run on an arena, or on none (a nil arena).
type arenaCell struct {
	name string
	run  func(a *sim.Arena) (*Result, error)
}

// stencilCells are halo3d and sweep3d cells at 1, 2 and 4 shards and at
// several rank counts, modes and topologies: every sharded cell run on an
// arena after them takes a world, coroutines and record lists of another
// size and shape.
func stencilCells() []arenaCell {
	var cells []arenaCell
	for _, shards := range []int{1, 2, 4} {
		for i, dims := range [][3]int{{2, 2, 2}, {3, 2, 2}, {4, 2, 2}} {
			cfg := HaloConfig{
				Nx: dims[0], Ny: dims[1], Nz: dims[2], ThreadsPerDim: 2, FaceBytes: 8 << 10,
				Compute: 3 * sim.Microsecond, Repeats: 2, Mode: []Mode{Partitioned, Multi, Single}[i], Shards: shards,
			}
			if i == 1 {
				cfg.Topology = netsim.NewDragonflyPlus(4, 900*sim.Nanosecond, 5*sim.Microsecond)
			}
			cells = append(cells, arenaCell{
				name: fmt.Sprintf("halo3d %v %v shards=%d", dims, cfg.Mode, shards),
				run:  func(a *sim.Arena) (*Result, error) { return runHalo3D(a, cfg) },
			})
		}
		for i, dims := range [][2]int{{2, 2}, {4, 2}, {4, 4}} {
			cfg := SweepConfig{
				Px: dims[0], Py: dims[1], Threads: 4, BytesPerThread: 2048, Compute: 3 * sim.Microsecond,
				ZBlocks: 2, Octants: 4, Repeats: 1, Mode: []Mode{Partitioned, Single, Multi}[i], Shards: shards,
			}
			cells = append(cells, arenaCell{
				name: fmt.Sprintf("sweep3d %v %v shards=%d", dims, cfg.Mode, shards),
				run:  func(a *sim.Arena) (*Result, error) { return runSweep3D(a, cfg) },
			})
		}
	}
	return cells
}

// deadShardedDrive runs a four-rank program on a two-shard group built from
// a whose drive dies: every rank waits for a message nobody sends (a
// deadlock), or rank 3, on shard 1, panics mid-drive while the others wait.
func deadShardedDrive(t *testing.T, a *sim.Arena, panics bool) {
	t.Helper()
	w, runSim, _, err := buildWorld(a, 2, 4, mpi.DefaultConfig(4), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch("dead", func(c *mpi.Comm, p *sim.Proc) {
		c.SendBytes(p, c.Rank()^1, 1, 4096)
		c.Recv(p, c.Rank()^1, 1)
		if panics && c.Rank() == 3 {
			p.Sleep(sim.Microsecond)
			panic("rank 3 panics mid-drive")
		}
		c.Recv(p, c.Rank()^1, 2) // never sent
	})
	if !panics {
		if err := runSim(); !errors.As(err, new(*sim.DeadlockError)) {
			t.Fatalf("deadlocked drive: err = %v, want a deadlock", err)
		}
		return
	}
	defer func() {
		if r := recover(); r != "rank 3 panics mid-drive" {
			t.Fatalf("panicking drive: recovered %v", r)
		}
	}()
	runSim()
	t.Fatal("the panicking drive returned")
}

// settledGoroutines waits until the goroutine count stops changing, so
// that the window workers of groups run before have exited, and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// shardCounts are the deterministic part of a result's shard telemetry: the
// windows, the events dispatched in them and the cross-shard events merged.
func shardCounts(r *Result) [4]int64 {
	if r.Shard == nil {
		return [4]int64{}
	}
	return [4]int64{r.Shard.Windows, r.Shard.Events, r.Shard.Merged, r.Shard.MergeSkips}
}

// TestShardedArenaReuseChangesNoResult runs the stencil cells shuffled on
// one arena, sequential and sharded ones mixed, with a deadlocked and a
// panicking sharded drive among them, and every result must equal the same
// cell's on no arena, the deterministic shard counters included. Each
// sharded cell's events are counted on the arena, and the arena's
// coroutines are gone after Close.
func TestShardedArenaReuseChangesNoResult(t *testing.T) {
	replay := func(t *testing.T, seed int64) {
		cells := stencilCells()
		want := make([]*Result, len(cells))
		for i, c := range cells {
			res, err := c.run(nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want[i] = res
		}
		before := settledGoroutines()
		var a sim.Arena
		for k, i := range rand.New(rand.NewSource(seed)).Perm(len(cells)) {
			switch k {
			case 5:
				deadShardedDrive(t, &a, false)
			case 11:
				deadShardedDrive(t, &a, true)
			}
			c := cells[i]
			ev := a.Events()
			got, err := c.run(&a)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			// The shards' drives are counted on the arena: the group ran on it.
			if now := a.Events(); got.Shard != nil && now.Popped+now.ShortCut-ev.Popped-ev.ShortCut != got.Shard.Events {
				t.Errorf("%s: the arena counted %d events, the group %d",
					c.name, now.Popped+now.ShortCut-ev.Popped-ev.ShortCut, got.Shard.Events)
			}
			if !reflect.DeepEqual(virtualResult(got), virtualResult(want[i])) || shardCounts(got) != shardCounts(want[i]) {
				t.Errorf("%s, run %d on the arena: %+v %v, on none %+v %v",
					c.name, k, virtualResult(got), shardCounts(got), virtualResult(want[i]), shardCounts(want[i]))
			}
		}
		a.Close()
		// A group's window workers exit just after its Run returns.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("%d goroutines before the cells, %d after Close", before, now)
		}
	}
	replay(t, 46)
	t.Run("skewed", func(t *testing.T) {
		useMapping(t, "skewed")
		replay(t, 47)
	})
}
