package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	wall := metricDef{Name: "wall_s", Better: lower, Bound: 0.10}
	rps := metricDef{Name: "sat_rps", Better: higher, Bound: 0.10}
	cases := []struct {
		a, b side
		d    metricDef
		want string
	}{
		{side{median: 1.00, spread: 0.02}, side{median: 1.05, spread: 0.03}, wall, "agree"},
		{side{median: 1.00, spread: 0.02}, side{median: 1.20, spread: 0.03}, wall, "differs"},
		{side{median: 1.00, spread: 0.02}, side{median: 0.80, spread: 0.03}, wall, "differs"}, // same commit: better is also a difference
		{side{median: 1.00, spread: 0.15}, side{median: 1.20, spread: 0.03}, wall, "unresolved"},
		{side{median: 900, spread: 0.01}, side{median: 700, spread: 0.01}, rps, "differs"},
	}
	for _, c := range cases {
		change, got := verdict(c.a, c.b, c.d)
		if got != c.want {
			t.Errorf("%v vs %v on %s: %s (%+.2f), want %s", c.a, c.b, c.d.Name, got, change, c.want)
		}
	}
	// Lower throughput is worse: the change is signed so that + is worse.
	if change, _ := verdict(side{median: 900}, side{median: 700}, rps); change <= 0 {
		t.Errorf("a drop in sat_rps reads as %+.2f, want positive (worse)", change)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall float64, digest string) string {
		path := filepath.Join(dir, name)
		for _, wl := range workloads {
			rec := &record{Workload: wl.Name, Controls: controls{Seed: 1},
				result:    result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{}},
				Quartiles: map[string][3]float64{}, Digests: map[string]string{"tables": digest}}
			for _, d := range endToEnd {
				rec.Metrics[d.Name] = metricValue{Value: wall, Unit: d.Unit}
				rec.Quartiles[d.Name] = [3]float64{wall * 0.99, wall * 1.01, 3}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, same, slow := write("a.jsonl", 1.00, "d1"), write("b.jsonl", 1.03, "d1"), write("c.jsonl", 1.50, "d2")
	var buf bytes.Buffer
	if differs, err := compareFiles(&buf, a, same); err != nil || differs {
		t.Fatalf("two agreeing sets: differs=%v err=%v\n%s", differs, err, buf.String())
	}
	buf.Reset()
	differs, err := compareFiles(&buf, a, slow)
	if err != nil || !differs {
		t.Fatalf("a 50%% slower set: differs=%v err=%v", differs, err)
	}
	for _, want := range []string{"differs", "digest figs-cold/tables differs between A and B"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, buf.String())
		}
	}
	if _, err := compareFiles(&buf, a, filepath.Join(dir, "missing")); err == nil {
		t.Error("a missing file must be an error")
	}
	_ = os.Remove(a)
}
