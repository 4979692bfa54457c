package patterns

import (
	"encoding/json"
	"runtime"
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/mpi"
	"partmb/internal/netsim"
	"partmb/internal/platform"
	"partmb/internal/sim"
	"partmb/internal/trace"
)

// virtualResult strips the host-side Shard telemetry from a Result so tests
// can compare the virtual-time outcome by value: the motif result proper must
// be identical at any shard count, worker count, or rank→shard mapping, while
// the Shard counters legitimately differ run to run.
func virtualResult(r *Result) Result {
	v := *r
	v.Shard = nil
	return v
}

// TestHalo3DShardIdentity is the tentpole property test: the motif's result
// must be identical whether the simulation runs on 1, 2 or 8 shards, for
// every communication mode. The single-shard run exercises the literal
// sequential code path, so equality pins the sharded kernel to the
// deterministic reference.
func TestHalo3DShardIdentity(t *testing.T) {
	modes := []struct {
		mode Mode
		impl mpi.PartImpl
	}{
		{Single, mpi.PartMPIPCL},
		{Persistent, mpi.PartMPIPCL},
		{Multi, mpi.PartMPIPCL},
		{Partitioned, mpi.PartMPIPCL},
		{Partitioned, mpi.PartNative},
	}
	for _, m := range modes {
		m := m
		t.Run(m.mode.String()+"/"+m.impl.String(), func(t *testing.T) {
			t.Parallel()
			run := func(shards int) *Result {
				res, err := RunHalo3D(HaloConfig{
					Nx: 2, Ny: 2, Nz: 2,
					ThreadsPerDim: 2,
					FaceBytes:     16 * 1024,
					Compute:       5 * sim.Microsecond,
					Repeats:       3,
					Mode:          m.mode,
					Platform:      &platform.Spec{Impl: m.impl},
					Shards:        shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			want := run(1)
			if want.Shard != nil {
				t.Error("sequential run reports shard stats")
			}
			for _, shards := range []int{2, 8} {
				got := run(shards)
				if virtualResult(got) != virtualResult(want) {
					t.Errorf("shards=%d: result %v != sequential %v", shards, got, want)
				}
				if got.Shard == nil || got.Shard.Windows == 0 {
					t.Errorf("shards=%d: missing shard stats %+v", shards, got.Shard)
				}
			}
		})
	}
}

// TestSweep3DShardIdentity is the wavefront counterpart: sharded KBA sweeps
// must match the sequential kernel exactly.
func TestSweep3DShardIdentity(t *testing.T) {
	for _, mode := range Modes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			run := func(shards int) *Result {
				res, err := RunSweep3D(SweepConfig{
					Px: 4, Py: 2,
					Threads:        4,
					BytesPerThread: 2048,
					Compute:        5 * sim.Microsecond,
					ZBlocks:        2,
					Octants:        4,
					Repeats:        1,
					Mode:           mode,
					Shards:         shards,
				})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			want := run(1)
			for _, shards := range []int{2, 8} {
				got := run(shards)
				if virtualResult(got) != virtualResult(want) {
					t.Errorf("shards=%d: result %v != sequential %v", shards, got, want)
				}
			}
		})
	}
}

// TestHalo3DDragonflyShardIdentity pins the congestion-aware topology too:
// with a wing-aligned Dragonfly+ the lookahead is the inter-wing latency and
// results must still be shard-count independent.
func TestHalo3DDragonflyShardIdentity(t *testing.T) {
	run := func(shards int) *Result {
		res, err := RunHalo3D(HaloConfig{
			Nx: 2, Ny: 2, Nz: 2,
			ThreadsPerDim: 1,
			FaceBytes:     8 * 1024,
			Repeats:       3,
			Mode:          Single,
			Shards:        shards,
			Topology:      netsim.NewDragonflyPlus(4, 900*sim.Nanosecond, 5*sim.Microsecond),
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	want := run(1)
	if got := run(2); virtualResult(got) != virtualResult(want) {
		t.Errorf("shards=2: result %v != sequential %v", got, want)
	}
}

// TestHalo3DLargeShardedMotif drives a 1000-rank decomposition through the
// sharded kernel — the many-rank regime the shard refactor exists for —
// and checks it against the sequential reference.
func TestHalo3DLargeShardedMotif(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-rank motif")
	}
	nx, ny, nz := Decompose3D(1000)
	if nx != 10 || ny != 10 || nz != 10 {
		t.Fatalf("Decompose3D(1000) = %dx%dx%d", nx, ny, nz)
	}
	run := func(shards int) *Result {
		res, err := RunHalo3D(HaloConfig{
			Nx: nx, Ny: ny, Nz: nz,
			ThreadsPerDim: 1,
			FaceBytes:     4 * 1024,
			Repeats:       2,
			Mode:          Single,
			Shards:        shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	want := run(1)
	if got := run(8); virtualResult(got) != virtualResult(want) {
		t.Errorf("shards=8: result %v != sequential %v", got, want)
	}
	if want.Messages == 0 || want.Elapsed <= 0 {
		t.Fatalf("degenerate result %v", want)
	}
}

func TestDecompose(t *testing.T) {
	for _, tc := range []struct{ n, x, y, z int }{
		{8, 2, 2, 2}, {12, 3, 2, 2}, {100, 5, 5, 4}, {7, 7, 1, 1}, {512, 8, 8, 8},
	} {
		x, y, z := Decompose3D(tc.n)
		if x != tc.x || y != tc.y || z != tc.z {
			t.Errorf("Decompose3D(%d) = %d,%d,%d want %d,%d,%d", tc.n, x, y, z, tc.x, tc.y, tc.z)
		}
		if x*y*z != tc.n {
			t.Errorf("Decompose3D(%d) product %d", tc.n, x*y*z)
		}
	}
	for _, tc := range []struct{ n, px, py int }{
		{8, 4, 2}, {12, 4, 3}, {100, 10, 10}, {7, 7, 1},
	} {
		px, py := Decompose2D(tc.n)
		if px != tc.px || py != tc.py {
			t.Errorf("Decompose2D(%d) = %d,%d want %d,%d", tc.n, px, py, tc.px, tc.py)
		}
	}
}

// roundRobinShards maps rank r to shard r mod shards: the per-rank scatter
// that cuts every neighbour link of a block-decomposed motif.
func roundRobinShards(ranks, shards int) (func(rank int) int, error) {
	return func(rank int) int { return rank % shards }, nil
}

// skewedShards builds a deliberately imbalanced mapping: the first one or
// two "heavy" shards hold ~80% of the ranks in contiguous blocks and the
// remaining shards split the rest evenly — adversarial for the window pool,
// whose even split puts both heavy shards on worker 0.
func skewedShards(ranks, shards int) (func(rank int) int, error) {
	heavies := 2
	if shards == 2 {
		heavies = 1
	}
	light := shards - heavies
	heavy := 4 * ranks / 5 / heavies
	if rest := ranks - heavies*heavy; rest < light {
		// Not enough ranks left for one per light shard; give the excess
		// back until every shard is non-empty.
		heavy = (ranks - light) / heavies
	}
	off := heavies * heavy
	rest := ranks - off
	return func(rank int) int {
		if rank < off {
			return rank / heavy
		}
		// Even contiguous split of the remainder over the light shards;
		// surjective because rest >= light.
		return heavies + (rank-off)*light/rest
	}, nil
}

var testMappings = map[string]func(ranks, shards int) (func(rank int) int, error){
	"block":      cluster.BlockShards,
	"roundrobin": roundRobinShards,
	"skewed":     skewedShards,
}

// useMapping points buildWorld's mapping seam at the named test
// mapping until the test ends. Tests using it must not run in parallel.
func useMapping(t *testing.T, name string) {
	old := shardMapping
	shardMapping = testMappings[name]
	t.Cleanup(func() { shardMapping = old })
}

func TestSkewedShards(t *testing.T) {
	// Structural check across a sweep of shapes: the mapping is monotone
	// (contiguous blocks), covers every shard, and concentrates most of the
	// ranks on the heavy shards.
	for _, tc := range []struct{ ranks, shards int }{
		{8, 2}, {8, 3}, {8, 8}, {64, 4}, {512, 16}, {100, 3}, {7, 5},
	} {
		m, _ := skewedShards(tc.ranks, tc.shards)
		counts := make([]int, tc.shards)
		last := 0
		for r := 0; r < tc.ranks; r++ {
			s := m(r)
			if s < 0 || s >= tc.shards {
				t.Fatalf("skewedShards(%d,%d)(%d) = %d out of range", tc.ranks, tc.shards, r, s)
			}
			if s < last {
				t.Fatalf("skewedShards(%d,%d) not monotone at rank %d", tc.ranks, tc.shards, r)
			}
			last = s
			counts[s]++
		}
		for s, c := range counts {
			if c == 0 {
				t.Fatalf("skewedShards(%d,%d): shard %d empty (%v)", tc.ranks, tc.shards, s, counts)
			}
		}
		heavies := 2
		if tc.shards == 2 {
			heavies = 1
		}
		if tc.ranks >= 4*tc.shards {
			heavy := 0
			for s := 0; s < heavies; s++ {
				heavy += counts[s]
			}
			if frac := float64(heavy) / float64(tc.ranks); frac < 0.6 {
				t.Fatalf("skewedShards(%d,%d): heavy shards hold only %.0f%% (%v)", tc.ranks, tc.shards, 100*frac, counts)
			}
		}
	}
}

// TestHalo3DShardMappingIdentity pins that the rank→shard mapping is an
// execution detail: a skewed or round-robin mapping changes only the
// parallel execution shape — the motif result stays byte-for-byte the
// sequential one.
func TestHalo3DShardMappingIdentity(t *testing.T) {
	run := func(shards int) *Result {
		res, err := RunHalo3D(HaloConfig{
			Nx: 2, Ny: 2, Nz: 2,
			ThreadsPerDim: 2,
			FaceBytes:     8 * 1024,
			Compute:       2 * sim.Microsecond,
			Repeats:       3,
			Mode:          Partitioned,
			Shards:        shards,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}
	want := virtualResult(run(1))
	for _, mapping := range []string{"block", "roundrobin", "skewed"} {
		t.Run(mapping, func(t *testing.T) {
			useMapping(t, mapping)
			for _, shards := range []int{2, 4} {
				if got := run(shards); virtualResult(got) != want {
					t.Errorf("shards=%d: result %v != sequential", shards, got)
				}
			}
		})
	}
}

// TestShardedJSONByteIdentity is the serialization property test the cache
// and goldens depend on: the JSON encoding of a motif result is identical
// across shard counts, worker counts (GOMAXPROCS), and rank→shard mappings
// — the Shard telemetry never leaks into the encoded form. Not parallel: it
// flips GOMAXPROCS for the whole process.
func TestShardedJSONByteIdentity(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	encode := func(shards, procs int) string {
		runtime.GOMAXPROCS(procs)
		res, err := RunSweep3D(SweepConfig{
			Px: 4, Py: 2,
			Threads:        2,
			BytesPerThread: 1024,
			Compute:        2 * sim.Microsecond,
			ZBlocks:        2,
			Octants:        4,
			Repeats:        1,
			Mode:           Partitioned,
			Shards:         shards,
		})
		if err != nil {
			t.Fatalf("shards=%d procs=%d: %v", shards, procs, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := encode(1, 1)
	for _, mapping := range []string{"skewed", "roundrobin"} {
		t.Run(mapping, func(t *testing.T) {
			useMapping(t, mapping)
			for _, shards := range []int{2, 8} {
				for _, procs := range []int{1, 2, 8} {
					if got := encode(shards, procs); got != want {
						t.Errorf("shards=%d procs=%d: JSON %s != %s", shards, procs, got, want)
					}
				}
			}
		})
	}
}

// TestHalo3DSkewedStress drives an adversarially imbalanced partition — two
// heavy shards holding ~80% of the ranks, both in worker 0's half of an even
// split — through many windows. Primarily a -race exercise of the worker
// pool's claim path under real motif traffic.
func TestHalo3DSkewedStress(t *testing.T) {
	useMapping(t, "skewed")
	res, err := RunHalo3D(HaloConfig{
		Nx: 4, Ny: 4, Nz: 2,
		ThreadsPerDim: 1,
		FaceBytes:     4 * 1024,
		Compute:       1 * sim.Microsecond,
		Repeats:       6,
		Mode:          Single,
		Shards:        8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shard == nil || res.Shard.Windows == 0 || res.Shard.Events == 0 {
		t.Fatalf("degenerate shard stats %+v", res.Shard)
	}
	if res.Shard.ImbalanceMean < 1.0 {
		t.Errorf("ImbalanceMean = %v on a skewed mapping", res.Shard.ImbalanceMean)
	}
}

// TestShardedKeysUnchanged pins the cell keys of sharded motif configs to
// literal hashes: a field added to or dropped from HaloConfig/SweepConfig
// must not move the key of a config that leaves it zero, or every cell in
// an existing -cachedir is orphaned. (internal/remote's TestCellKeysPinned
// pins one key of every kind.)
func TestShardedKeysUnchanged(t *testing.T) {
	halo := Halo3D.Key(HaloConfig{
		Nx: 4, Ny: 2, Nz: 2,
		ThreadsPerDim: 2,
		FaceBytes:     16 << 10,
		Compute:       5 * sim.Microsecond,
		Repeats:       3,
		Mode:          Partitioned,
		Shards:        4,
	})
	if want := "b78581e524e5ea26be89a7ade1245d80f735d084f1e8cf2b11494df94bcbc975"; halo != want {
		t.Errorf("Halo3D key = %s; want %s", halo, want)
	}
	sweep := Sweep3D.Key(SweepConfig{
		Px: 4, Py: 2,
		Threads:        4,
		BytesPerThread: 2048,
		Compute:        5 * sim.Microsecond,
		ZBlocks:        2,
		Octants:        4,
		Repeats:        1,
		Mode:           Partitioned,
		Shards:         4,
	})
	if want := "cba52c9eed8452c984f4bf2f947be4352a80c24539ab1194e59a4b2ceaf67536"; sweep != want {
		t.Errorf("Sweep3D key = %s; want %s", sweep, want)
	}
}

// TestShardTraceSmoke checks the per-shard trace lanes: a traced sharded
// run records one span per executed shard-window, and traced configs bypass
// the cache (the recorder is host-timing dependent and excluded from the
// key, so a memo hit would leave it empty).
func TestShardTraceSmoke(t *testing.T) {
	cfg := HaloConfig{
		Nx: 2, Ny: 2, Nz: 2,
		ThreadsPerDim: 1,
		FaceBytes:     4 * 1024,
		Repeats:       3,
		Mode:          Single,
		Shards:        2,
	}
	run := func() (*Result, int) {
		tr := new(trace.Recorder)
		c := cfg
		c.ShardTrace = tr
		res, err := Halo3D.Run(nil, c)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Len()
	}
	res, spans := run()
	if res.Shard == nil {
		t.Fatal("traced sharded run missing shard stats")
	}
	// Every (window, active shard) pair gets one span; inactive shards are
	// skipped, so spans can fall short of windows*shards but must at least
	// cover the executed windows.
	if spans < int(res.Shard.Windows) {
		t.Errorf("spans = %d, want >= %d windows", spans, res.Shard.Windows)
	}
	// Second traced run through the cached entry must still fill its own
	// recorder — traced configs are uncacheable.
	if _, again := run(); again == 0 {
		t.Error("second traced run hit the cache and recorded no spans")
	}
}

// TestShardValidation pins the fail-at-startup contract for bad shard and
// topology requests.
func TestShardValidation(t *testing.T) {
	base := HaloConfig{Nx: 2, Ny: 2, Nz: 2, ThreadsPerDim: 1, FaceBytes: 1024, Mode: Single}

	neg := base
	neg.Shards = -1
	if _, err := RunHalo3D(neg); err == nil {
		t.Error("negative shard count accepted")
	}

	many := base
	many.Shards = 9 // more shards than ranks
	if _, err := RunHalo3D(many); err == nil {
		t.Error("shards > ranks accepted")
	}

	sw := SweepConfig{Px: 2, Py: 2, Threads: 1, BytesPerThread: 1024, Mode: Single, Shards: 5}
	if _, err := RunSweep3D(sw); err == nil {
		t.Error("sweep shards > ranks accepted")
	}
}
