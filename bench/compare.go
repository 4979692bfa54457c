package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads a JSON-lines file written with -out, keeping the
// untraced runs (end-to-end metrics come from those) grouped by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Traced {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, sc.Err()
}

// side is one file's view of a metric on a workload: the median over its
// runs and the run-to-run spread (quartile distance over median). With a
// single run the spread is the within-run one, where the metric has per-pass
// samples, else unknown (NaN).
type side struct {
	median, spread float64
}

func sideOf(recs []record, metric string) side {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	s := side{median: median(xs), spread: math.NaN()}
	switch {
	case len(xs) >= 4:
		s.spread = spread(xs)
	case len(xs) >= 1:
		if q, ok := recs[0].Quartiles[metric]; ok && s.median != 0 {
			s.spread = (q[1] - q[0]) / math.Abs(s.median)
		}
	}
	return s
}

// verdict classifies B against A for one metric. The change is B's median
// over A's, minus one, so that positive is worse; for a rate it is taken on
// the reciprocal (time per unit of work), so that a rate and the time it is
// the inverse of get the same change and the same verdict. Two sets of the
// same commit agree when the change is inside the bound either way; a spread
// wider than the bound on either side means the runs cannot resolve a change
// of that size.
func verdict(a, b side, d metricDef) (change float64, v string) {
	if a.median == 0 {
		if b.median == 0 {
			return 0, "agree"
		}
		return math.Inf(1), "differs"
	}
	change = b.median/a.median - 1
	if d.Better == higher {
		if b.median == 0 {
			return math.Inf(1), "differs"
		}
		change = a.median/b.median - 1
	}
	switch {
	case a.spread > d.Bound || b.spread > d.Bound:
		return change, "unresolved"
	case math.Abs(change) > d.Bound:
		return change, "differs"
	}
	return change, "agree"
}

// compareFiles prints, per workload and end-to-end metric, both medians, B's
// change against A with its base, the bound, and the verdict; then the digest
// equalities within each file and between them. It reports whether anything
// differs.
func compareFiles(w io.Writer, pathA, pathB string) (differs bool, err error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s, B = %s; change = B/A - 1 (A/B - 1 for a rate): + is worse\n", pathA, pathB)
	fmt.Fprintf(w, "%-12s %-12s %12s %12s %9s %7s %8s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "A spread", "B spread", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-12s missing from %s\n", wl.Name, map[bool]string{true: pathA, false: pathB}[len(ra) == 0])
			differs = true
			continue
		}
		for _, d := range endToEnd {
			sa, sb := sideOf(ra, d.Name), sideOf(rb, d.Name)
			change, v := verdict(sa, sb, d)
			if v == "differs" {
				differs = true
			}
			fmt.Fprintf(w, "%-12s %-12s %12.6g %12.6g %+8.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.Name, d.Name, sa.median, sb.median, 100*change, 100*d.Bound, 100*sa.spread, 100*sb.spread, v)
		}
		failed := 0
		for _, r := range append(ra, rb...) {
			failed += r.Failed
		}
		if failed > 0 {
			fmt.Fprintf(w, "%-12s %d failed operations\n", wl.Name, failed)
			differs = true
		}
	}
	// Outputs must not depend on how they were computed: cold or warm, one
	// shard or four, this run or that one.
	for _, pair := range [][2]string{{"figs-cold", "figs-warm"}, {"scale-seq", "scale-shard"}} {
		for _, file := range []struct {
			path string
			recs map[string][]record
		}{{pathA, a}, {pathB, b}} {
			x, y := file.recs[pair[0]], file.recs[pair[1]]
			if len(x) == 0 || len(y) == 0 || x[0].Controls.Seed != y[0].Controls.Seed {
				continue
			}
			ok := x[0].Digests["tables"] == y[0].Digests["tables"]
			fmt.Fprintf(w, "digest %s = %s in %s: %v\n", pair[0], pair[1], file.path, ok)
			differs = differs || !ok
		}
	}
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 || ra[0].Controls.Seed != rb[0].Controls.Seed {
			continue
		}
		for name, da := range ra[0].Digests {
			if db := rb[0].Digests[name]; da != db {
				fmt.Fprintf(w, "digest %s/%s differs between A and B\n", wl.Name, name)
				differs = true
			}
		}
	}
	return differs, nil
}
