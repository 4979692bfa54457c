package snap

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGrid(t *testing.T) {
	cases := map[int][2]int{
		1: {1, 1}, 2: {1, 2}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4},
		64: {8, 8}, 128: {8, 16}, 256: {16, 16}, 7: {1, 7},
	}
	for n, want := range cases {
		px, py := grid(n)
		if px != want[0] || py != want[1] {
			t.Errorf("grid(%d) = %dx%d, want %dx%d", n, px, py, want[0], want[1])
		}
		if px*py != n {
			t.Errorf("grid(%d) does not cover all ranks", n)
		}
	}
}

func TestProjectSpeedup(t *testing.T) {
	// Paper numbers: f=0.545 at 256 nodes with gain 15.1.
	got := ProjectSpeedup(0.545, SweepGain)
	want := 1 / ((1 - 0.545) + 0.545/15.1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ProjectSpeedup = %v, want %v", got, want)
	}
	if got < 2 || got > 2.1 {
		t.Fatalf("256-node projection = %.3f, expected just above 2x", got)
	}
	if s := ProjectSpeedup(0, SweepGain); s != 1 {
		t.Fatalf("zero fraction projection = %v, want 1", s)
	}
	if s := ProjectSpeedup(1, SweepGain); math.Abs(s-SweepGain) > 1e-12 {
		t.Fatalf("full fraction projection = %v, want gain", s)
	}
}

func TestProjectSpeedupPanics(t *testing.T) {
	for _, f := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("fraction %v did not panic", f)
				}
			}()
			ProjectSpeedup(f, SweepGain)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero gain did not panic")
			}
		}()
		ProjectSpeedup(0.5, 0)
	}()
}

// Property: speedup is monotone in the fraction and bounded by [1, gain].
func TestQuickProjectionBounds(t *testing.T) {
	f := func(a, b uint16) bool {
		fa := float64(a) / 65535
		fb := float64(b) / 65535
		if fa > fb {
			fa, fb = fb, fa
		}
		sa, sb := ProjectSpeedup(fa, SweepGain), ProjectSpeedup(fb, SweepGain)
		return sa <= sb && sa >= 1 && sb <= SweepGain+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileSmall(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Repeats = 1
	cfg.Octants = 4
	pt, err := Profile(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MPIFraction <= 0 || pt.MPIFraction >= 1 {
		t.Fatalf("MPI fraction = %v, want in (0,1)", pt.MPIFraction)
	}
	if pt.Projected < 1 {
		t.Fatalf("projected speedup = %v, want >= 1", pt.Projected)
	}
}

func TestMPIFractionGrowsWithNodes(t *testing.T) {
	// The mpiP profile shape: strong scaling shrinks per-rank compute, so
	// the MPI fraction rises with node count.
	cfg := DefaultConfig()
	cfg.Octants = 4
	pts, err := ProfileScaling(nil, cfg, []int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if !(pts[0].MPIFraction < pts[1].MPIFraction && pts[1].MPIFraction < pts[2].MPIFraction) {
		t.Fatalf("MPI fraction not increasing: %v %v %v",
			pts[0].MPIFraction, pts[1].MPIFraction, pts[2].MPIFraction)
	}
	if !(pts[0].Projected < pts[2].Projected) {
		t.Fatalf("projection not increasing with scale")
	}
}

func TestProfileBadNodes(t *testing.T) {
	if _, err := Profile(DefaultConfig(), 0); err == nil {
		t.Fatal("0 nodes accepted")
	}
}

func TestProxyDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Octants = 2
	a, err := Profile(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Profile(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.AppTime != b.AppTime || a.MPITime != b.MPITime {
		t.Fatalf("proxy nondeterministic: %+v vs %+v", a, b)
	}
}

func TestProxyReportNamesCalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Octants = 2
	rep, err := runProxy(nil, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, cs := range rep.Calls {
		seen[cs.Name] = true
		if cs.Count <= 0 {
			t.Fatalf("call %s has count %d", cs.Name, cs.Count)
		}
	}
	for _, want := range []string{"MPI_Recv", "MPI_Isend", "MPI_Waitall"} {
		if !seen[want] {
			t.Fatalf("profile missing %s: %+v", want, rep.Calls)
		}
	}
}
