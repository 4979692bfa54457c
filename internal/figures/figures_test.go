package figures

import (
	"strconv"
	"strings"
	"testing"

	"partmb/internal/engine"
)

// tiny returns an even smaller scale than Quick for unit tests.
func tiny() Scale {
	sc := quick()
	sc.MetricSizes = []int64{64 << 10, 4 << 20}
	sc.PartCounts = []int{1, 16}
	sc.SweepSizes = []int64{128 << 10}
	sc.HaloSizes = []int64{256 << 10}
	sc.SnapNodes = []int{2, 8}
	sc.Iterations = 2
	sc.Warmup = 1
	return sc
}

func TestGenerateAllFigures(t *testing.T) {
	sc := tiny()
	for _, fig := range Numbers() {
		fig := fig
		t.Run("fig"+strconv.Itoa(fig), func(t *testing.T) {
			tables, err := Env{}.Generate(fig, sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q has no rows", tab.Title)
				}
				if !strings.Contains(tab.Title, "Figure") {
					t.Fatalf("table title %q does not name its figure", tab.Title)
				}
			}
		})
	}
}

func TestGenerateUnknownFigure(t *testing.T) {
	if _, err := (Env{}).Generate(3, quick()); err == nil {
		t.Fatal("figure 3 accepted")
	}
	if _, err := (Env{}).Generate(14, quick()); err == nil {
		t.Fatal("figure 14 accepted")
	}
}

// TestParseScale pins the -scale flag's names: "" defaults to quick, and
// names are case-sensitive.
func TestParseScale(t *testing.T) {
	for in, want := range map[string]string{"": "quick", "quick": "quick", "full": "full"} {
		got, err := ScaleByName(in)
		if err != nil || got.Name != want {
			t.Errorf("ScaleByName(%q) = %q, %v; want %q", in, got.Name, err, want)
		}
	}
	for _, bad := range []string{"fast", "FULL", "tiny"} {
		if _, err := ScaleByName(bad); err == nil {
			t.Errorf("ScaleByName(%q) accepted", bad)
		}
	}
}

func TestScalesAreSane(t *testing.T) {
	for _, sc := range []Scale{quick(), full()} {
		if sc.Iterations <= 0 || len(sc.MetricSizes) == 0 || len(sc.PartCounts) == 0 {
			t.Fatalf("scale %s incomplete: %+v", sc.Name, sc)
		}
		if sc.SweepGridPx*sc.SweepGridPy < 4 {
			t.Fatalf("scale %s sweep grid too small", sc.Name)
		}
		if len(sc.SnapNodes) == 0 {
			t.Fatalf("scale %s has no snap nodes", sc.Name)
		}
	}
}

func TestWithoutOne(t *testing.T) {
	got := withoutOne([]int{1, 2, 4})
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("withoutOne = %v", got)
	}
	if got := withoutOne([]int{1}); len(got) != 1 {
		t.Fatalf("withoutOne degenerate = %v", got)
	}
}

func TestFig4HeadlineShapes(t *testing.T) {
	// The overhead table must show: ~1x at 1 partition, larger at 16
	// partitions for the small size, and hot >= cold for small messages.
	sc := tiny()
	tables, err := Env{}.Generate(4, sc)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := tables[0], tables[1]
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Row 0 is 64KiB: columns are [size, p=1, p=16].
	small := hot.Rows[0]
	if o1 := parse(small[1]); o1 > 2.5 {
		t.Fatalf("hot 1-partition overhead = %v, want ~1", o1)
	}
	o16hot := parse(small[2])
	if o16hot <= parse(small[1]) {
		t.Fatalf("16-partition overhead not larger: %v", small)
	}
	o16cold := parse(cold.Rows[0][2])
	if o16cold >= o16hot {
		t.Fatalf("cold overhead %v not below hot %v for small messages", o16cold, o16hot)
	}
}

// TestZeroEnvSharesOneRunner checks that a zero Env resolves one runner per
// call, which the call's grids and cells share. Its cells then run on the
// grid's sweep arenas and repeated cells are memo hits, so the call
// allocates no more than the same call on an explicit runner. A runner per
// cell would build every simulation from nothing and miss the memo.
func TestZeroEnvSharesOneRunner(t *testing.T) {
	calls := []struct {
		name string
		call func(Env) error
	}{
		{"Generate", func(e Env) error { _, err := e.Generate(4, tiny()); return err }},
		{"ScalingTables", func(e Env) error { _, err := e.ScalingTables(goldenScalingOptions("halo3d", 1)); return err }},
	}
	for _, c := range calls {
		allocs := func(env func() Env) float64 {
			return testing.AllocsPerRun(2, func() {
				if err := c.call(env()); err != nil {
					t.Fatal(err)
				}
			})
		}
		zero := allocs(func() Env { return Env{} })
		own := allocs(func() Env { return Env{Runner: engine.New()} })
		t.Logf("%s: %.0f allocs on a zero Env, %.0f on an explicit runner", c.name, zero, own)
		if zero > 1.1*own {
			t.Errorf("%s on a zero Env allocates %.0f, on an explicit runner %.0f: the call does not share one runner",
				c.name, zero, own)
		}
	}
}
