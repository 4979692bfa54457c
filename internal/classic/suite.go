package classic

import (
	"fmt"

	"partmb/internal/engine"
	"partmb/internal/report"
)

// This file turns the individual benchmarks into report tables and registers
// them as named experiments, so `partmb classic` and `figures`-style suite drivers
// share one declarative catalogue.

// SuiteParams bundles the knobs the classic suite sweeps.
type SuiteParams struct {
	Config Config
	// Sizes is the message-size axis of the size-sweep benchmarks.
	Sizes []int64
	// Window is the window size of the bandwidth tests.
	Window int
}

// Benches lists the suite's benchmark names in presentation order.
func Benches() []string {
	return []string{"latency", "bw", "bibw", "rate", "threads", "match", "partlat"}
}

// BenchTable builds the named benchmark's report table on the runner.
func BenchTable(rn *engine.Runner, name string, p SuiteParams) (*report.Table, error) {
	// Label the runner so stats, journals, and traces attribute the cells
	// to this benchmark.
	rn.SetExperiment("classic/" + name)
	switch name {
	case "latency":
		pts, err := Latency(rn, p.Config, p.Sizes)
		if err != nil {
			return nil, err
		}
		return pointTable("osu_latency-style ping-pong", "latency us", "± us", pts, 1e6, p.Config.Adaptive != nil), nil
	case "bw":
		pts, err := Bandwidth(rn, p.Config, p.Sizes, p.Window)
		if err != nil {
			return nil, err
		}
		return pointTable(fmt.Sprintf("osu_bw-style streaming bandwidth (window %d)", p.Window), "GB/s", "± GB/s", pts, 1e-9, p.Config.Adaptive != nil), nil
	case "bibw":
		pts, err := BiBandwidth(rn, p.Config, p.Sizes, p.Window)
		if err != nil {
			return nil, err
		}
		return pointTable(fmt.Sprintf("osu_bibw-style bidirectional bandwidth (window %d)", p.Window), "aggregate GB/s", "± GB/s", pts, 1e-9, p.Config.Adaptive != nil), nil
	case "rate":
		rate, err := MessageRate(rn, p.Config, 8, p.Window)
		if err != nil {
			return nil, err
		}
		t := report.New("small-message rate (8B)", "window", "msgs/s")
		t.AddF(p.Window, rate)
		return t, nil
	case "threads":
		t := report.New("Thakur-Gropp multithreaded latency (1KiB, MPI_THREAD_MULTIPLE)", "threads", "latency us")
		for _, n := range []int{1, 2, 4, 8, 16} {
			lat, err := ThreadLatency(rn, p.Config, n, 1<<10)
			if err != nil {
				return nil, err
			}
			t.AddF(n, lat.Microseconds())
		}
		return t, nil
	case "match":
		t := report.New("matching queue-depth stress (after Schonbein et al.)", "unexpected depth", "Irecv search time us")
		for _, depth := range []int{0, 16, 64, 256, 1024} {
			took, err := MatchStress(rn, p.Config, depth)
			if err != nil {
				return nil, err
			}
			t.AddF(depth, took.Microseconds())
		}
		return t, nil
	case "partlat":
		t := report.New("partitioned ping-pong epoch time (1MiB)", "partitions", "epoch us")
		for _, parts := range []int{1, 2, 4, 8, 16, 32} {
			lat, err := PartLatency(rn, p.Config, 1<<20, parts)
			if err != nil {
				return nil, err
			}
			t.AddF(parts, lat.Microseconds())
		}
		return t, nil
	}
	return nil, fmt.Errorf("classic: unknown benchmark %q", name)
}

// pointTable renders a size-sweep point list, scaling values by scale. With
// adaptive sampling on it appends the 95% CI half-width (same unit as the
// value column) and sample-count columns — the error bars the methodology
// layer measured. Fixed-rep tables keep their exact historical shape.
func pointTable(title, valueCol, errCol string, pts []Point, scale float64, adaptive bool) *report.Table {
	if !adaptive {
		t := report.New(title, "size", valueCol)
		for _, pt := range pts {
			t.AddF(FormatSize(pt.Size), pt.Value*scale)
		}
		return t
	}
	t := report.New(title, "size", valueCol, errCol, "n")
	for _, pt := range pts {
		var hw float64
		var n int
		if pt.CI != nil {
			hw = pt.CI.HalfWidth()
			n = pt.CI.N
		}
		t.AddF(FormatSize(pt.Size), pt.Value*scale, hw*scale, n)
	}
	return t
}

// Suite builds every benchmark table in presentation order.
func Suite(rn *engine.Runner, p SuiteParams) ([]*report.Table, error) {
	out := make([]*report.Table, 0, len(Benches()))
	for _, name := range Benches() {
		t, err := BenchTable(rn, name, p)
		if err != nil {
			return nil, fmt.Errorf("classic: %s: %w", name, err)
		}
		out = append(out, t)
	}
	return out, nil
}
