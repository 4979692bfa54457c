package main

import (
	"strings"
	"testing"
)

func shardFile(seq, par float64) File {
	return file(
		Entry{Name: "shards/halo3d-512r-1", NsOp: seq, Fixed: true},
		Entry{Name: "shards/halo3d-512r-2", NsOp: (seq + par) / 2, Fixed: true},
		Entry{Name: "shards/halo3d-512r-8", NsOp: par, Fixed: true},
	)
}

func TestShardGateMultiCore(t *testing.T) {
	if err := shardGate(shardFile(100e6, 80e6), 0.1, 8); err != nil {
		t.Fatalf("20%% speedup rejected at 10%% bar: %v", err)
	}
	if err := shardGate(shardFile(100e6, 95e6), 0.1, 8); err == nil {
		t.Fatal("5% speedup accepted at 10% bar")
	}
	if err := shardGate(shardFile(100e6, 120e6), 0.1, 8); err == nil {
		t.Fatal("slowdown accepted on multi-core")
	}
}

func TestShardGateSingleCore(t *testing.T) {
	// On one core no parallel speedup is possible; the bar drops to
	// "does not slow down beyond the slack".
	if err := shardGate(shardFile(100e6, 103e6), 0.5, 1); err != nil {
		t.Fatalf("within-slack single-core run rejected: %v", err)
	}
	if err := shardGate(shardFile(100e6, 120e6), 0.5, 1); err == nil {
		t.Fatal("single-core slowdown beyond slack accepted")
	}
}

func TestShardGateMissingEntries(t *testing.T) {
	if err := shardGate(file(), 0.1, 8); err == nil {
		t.Fatal("empty file passed the shard gate")
	}
	if err := shardGate(file(bench("shards/halo3d-512r-1", 100e6)), 0.1, 8); err == nil {
		t.Fatal("missing shards=8 entry passed the shard gate")
	}
}

func TestStripShardEntries(t *testing.T) {
	f := shardFile(100e6, 80e6)
	f.Entries = append(f.Entries, bench("fig04", 1e6), bench("sched/inorder", 2e6))
	stripped := stripShardEntries(f)
	if len(stripped.Entries) != 2 {
		t.Fatalf("stripped to %d entries, want 2", len(stripped.Entries))
	}
	for _, e := range stripped.Entries {
		if strings.HasPrefix(e.Name, "shards/") {
			t.Fatalf("shards entry %s survived the strip", e.Name)
		}
	}
	// The original file keeps its entries (strip must not alias).
	if len(f.Entries) != 5 {
		t.Fatalf("input mutated to %d entries", len(f.Entries))
	}
}

func TestStripCIBounds(t *testing.T) {
	f := file(
		Entry{Name: "fig04", NsOp: 1e6, CILoNS: 0.8e6, CIHiNS: 1.2e6},
		Entry{Name: "fig05", NsOp: 2e6},
	)
	stripped := stripCIBounds(f)
	for _, e := range stripped.Entries {
		if e.CILoNS != 0 || e.CIHiNS != 0 {
			t.Fatalf("CI bounds survived the strip: %+v", e)
		}
	}
	// The original file keeps its bounds (strip must not alias).
	if f.Entries[0].CILoNS != 0.8e6 {
		t.Fatalf("input mutated: %+v", f.Entries[0])
	}
	// A baseline written this way falls back to tolerance gating, so a 2x
	// regression is caught even though the noisy run carried wide bounds.
	slow := file(Entry{Name: "fig04", NsOp: 2e6, CILoNS: 0.9e6, CIHiNS: 4e6})
	if c := compare(stripped, slow, 0.2); c.Regressions == 0 {
		t.Fatal("2x regression slipped past a CI-stripped baseline")
	}
}

// TestRunShardBenchmarksQuick exercises the real measurement path once and
// feeds the result through the gate with the hardware-aware bar.
func TestRunShardBenchmarksQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three 512-rank simulations")
	}
	entries, err := runShardBenchmarks(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(shardCounts) {
		t.Fatalf("%d entries, want %d", len(entries), len(shardCounts))
	}
	for _, e := range entries {
		if !e.Fixed {
			t.Fatalf("%s not marked Fixed", e.Name)
		}
		if e.NsOp <= 0 {
			t.Fatalf("%s has nonpositive wall time", e.Name)
		}
	}
	if err := shardGate(file(entries...), 0.05, shardGateCores()); err != nil {
		t.Fatalf("shard gate on a live run: %v", err)
	}
}

func stealFile(haloSteal, haloNoSteal, waveSteal, waveNoSteal float64) File {
	return file(
		Entry{Name: "shards/halo3d-skewed-steal", NsOp: haloSteal, Fixed: true},
		Entry{Name: "shards/halo3d-skewed-nosteal", NsOp: haloNoSteal, Fixed: true},
		Entry{Name: "shards/sweep3d-wave-steal", NsOp: waveSteal, Fixed: true},
		Entry{Name: "shards/sweep3d-wave-nosteal", NsOp: waveNoSteal, Fixed: true},
	)
}

func TestStealGateMultiCore(t *testing.T) {
	// 40% speedup on the skewed halo, wavefront flat: passes a 10% bar.
	if err := stealGate(stealFile(60e6, 100e6, 50e6, 50e6), 0.1, 8); err != nil {
		t.Fatalf("40%% steal speedup rejected at 10%% bar: %v", err)
	}
	if err := stealGate(stealFile(95e6, 100e6, 50e6, 50e6), 0.1, 8); err == nil {
		t.Fatal("5% steal speedup accepted at 10% bar")
	}
	// A wavefront slowdown beyond the slack fails regardless of the halo win.
	if err := stealGate(stealFile(60e6, 100e6, 60e6, 50e6), 0.1, 8); err == nil {
		t.Fatal("wavefront stealing overhead beyond slack accepted")
	}
}

func TestStealGateSingleCore(t *testing.T) {
	// One core: a one-worker pool runs the same inline path with stealing
	// on or off, so ratios are noise and only entry presence is checked.
	if err := stealGate(stealFile(140e6, 100e6, 80e6, 50e6), 0.5, 1); err != nil {
		t.Fatalf("single-core run rejected on an ungated ratio: %v", err)
	}
	if err := stealGate(file(bench("shards/halo3d-skewed-steal", 100e6)), 0.5, 1); err == nil {
		t.Fatal("missing entries passed the single-core steal gate")
	}
}

func TestStealGateMissingEntries(t *testing.T) {
	if err := stealGate(file(), 0.1, 8); err == nil {
		t.Fatal("empty file passed the steal gate")
	}
	f := file(
		Entry{Name: "shards/halo3d-skewed-steal", NsOp: 60e6, Fixed: true},
		Entry{Name: "shards/halo3d-skewed-nosteal", NsOp: 100e6, Fixed: true},
	)
	if err := stealGate(f, 0.1, 8); err == nil {
		t.Fatal("missing wavefront entries passed the steal gate")
	}
}

func TestImbalanceShards(t *testing.T) {
	for _, tc := range []struct{ cores, ranks, want int }{
		{1, 512, 2}, {2, 512, 4}, {8, 512, 16}, {512, 512, 512}, {1024, 512, 512},
	} {
		if got := imbalanceShards(tc.cores, tc.ranks); got != tc.want {
			t.Errorf("imbalanceShards(%d, %d) = %d, want %d", tc.cores, tc.ranks, got, tc.want)
		}
	}
}

func TestStripShardEntriesCoversImbalance(t *testing.T) {
	f := stealFile(60e6, 100e6, 50e6, 50e6)
	f.Entries = append(f.Entries, bench("fig04", 1e6))
	stripped := stripShardEntries(f)
	if len(stripped.Entries) != 1 || stripped.Entries[0].Name != "fig04" {
		t.Fatalf("imbalance entries survived the strip: %+v", stripped.Entries)
	}
}

// TestRunImbalanceBenchmarksQuick exercises the real measurement path once
// and checks the shape of what it returns. It does not put the live
// steal/no-steal ratio through stealGate: a wall-clock ratio of two
// near-tied sub-second runs is not a property `go test ./...` can assert on
// a shared host (it failed 4 of 4 runs on an untouched tree). The gate's
// logic is covered by the synthetic TestStealGate* cases above, and the live
// ratio is judged where it belongs — the `benchgate` CI run, best-of-reps on
// a quiet multi-core runner.
func TestRunImbalanceBenchmarksQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four imbalanced simulations")
	}
	entries, err := runImbalanceBenchmarks(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4", len(entries))
	}
	for _, e := range entries {
		if !e.Fixed || e.NsOp <= 0 {
			t.Fatalf("bad entry %+v", e)
		}
	}
	// The four names the steal gate looks up must all be present: on one
	// core the gate checks presence only, so this call cannot flake.
	if err := stealGate(file(entries...), 0.05, 1); err != nil {
		t.Fatalf("steal gate cannot find its entries: %v", err)
	}
}
