// Command bench is this repository's benchmark: six named workloads, each run
// in its own process, that check their outputs and print every metric by
// name with its unit. README.md is the glossary; BENCHMARK.json at the root
// of the repository is the contract a driver runs it under.
//
//	bench -workload figs-cold [-seed N] [-seconds S]   end-to-end metrics
//	bench -workload figs-cold -trace 1                 the traced run: per-layer metrics
//	bench -workload figs-cold -trace out.json          same, and write a Chrome trace
//	bench -probes                                      the per-layer ledger alone
//	bench -compare A.jsonl B.jsonl                     do two sets of runs agree?
//	bench -update                                      rewrite expected.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed expected.json holds digests for.
const defaultSeed = 1

//go:embed expected.json
var expectedJSON []byte

// expectedDigests maps workload name to digest name to SHA-256, for the
// default seed.
func expectedDigests() (map[string]map[string]string, error) {
	var exp map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

// controls are the factors held fixed and recorded with every output.
type controls struct {
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GOGC       string  `json:"gogc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func readControls(seed int64, seconds float64) controls {
	c := controls{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOGC: os.Getenv("GOGC"), Commit: "unknown", Seed: seed, Seconds: seconds,
	}
	if c.GOGC == "" {
		c.GOGC = "100 (default)"
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				c.Commit = s.Value
			}
		}
	}
	return c
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it: the result plus what is needed to
// compare runs (quartiles, digests, controls).
type record struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Controls controls `json:"controls"`
	result
	// Quartiles holds [q1, q3, samples] for metrics that are medians of
	// per-pass samples.
	Quartiles map[string][3]float64 `json:"quartiles,omitempty"`
	Digests   map[string]string     `json:"digests,omitempty"`
}

func main() {
	if plan := os.Getenv(loadgenEnv); plan != "" {
		os.Exit(loadgenMain(plan))
	}
	os.Exit(run())
}

// run is main with an exit code, so that its deferred clean-up happens before
// the process exits. 0: done and correct; 1: a check failed or two sets of
// runs differ; 2: the benchmark itself could not run.
func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "seed the workload's inputs and orders derive from")
		seconds  = flag.Float64("seconds", 12, "how long to measure")
		trace    = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run that also writes a Chrome trace there")
		probes   = flag.Bool("probes", false, "print the per-layer ledger and exit")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 if they differ")
		update   = flag.Bool("update", false, "run every workload once at the default seed and rewrite expected.json")
		smoke    = flag.Bool("smoke", false, "one pass (or 50 requests): run the correctness checks without measuring")
		outFile  = flag.String("out", "", "append this run's record to a JSON-lines file, for -compare")
	)
	flag.Parse()
	// Scratch files live under the working directory, which is the root of a
	// checkout: the benchmark writes nowhere else.
	tmp := filepath.Join(".bench_build", "tmp", "run-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(tmp)
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		differs, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if differs {
			return 1
		}
	case *update:
		if err := updateExpected(tmp); err != nil {
			return fail(err)
		}
	case *probes:
		v, err := runProbes(tmp)
		if err != nil {
			return fail(err)
		}
		printProbes(os.Stdout, v)
	default:
		w := workloadByName(*workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
		}
		rc := &runCtx{seed: *seed, seconds: *seconds, smoke: *smoke, tmp: tmp}
		traceFile := ""
		if *trace != "0" && *trace != "" {
			rc.tr = newTracer()
			if *trace != "1" {
				traceFile = *trace
			}
		}
		rec, err := runWorkload(os.Stdout, w, rc)
		if err != nil {
			return fail(err)
		}
		if traceFile != "" {
			if err := writeTraceFile(traceFile, rc.tr); err != nil {
				return fail(err)
			}
		}
		if *outFile != "" {
			if err := appendRecord(*outFile, rec); err != nil {
				return fail(err)
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return 1
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runWorkload runs one workload, checks its digests, and prints the report.
// On the traced run it then runs the probes and reports the per-layer
// metrics; otherwise the end-to-end ones.
func runWorkload(w io.Writer, wl *workloadDef, rc *runCtx) (*record, error) {
	ctl := readControls(rc.seed, rc.seconds)
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  traced %v\n", wl.Name, rc.seed, rc.seconds, rc.traced())
	fmt.Fprintf(w, "controls: %s GOMAXPROCS=%d nproc=%d GOGC=%s commit=%s\n", ctl.GoVersion, ctl.GOMAXPROCS, ctl.NumCPU, ctl.GOGC, ctl.Commit)
	t0 := time.Now()
	out, err := wl.run(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	if rc.seed == defaultSeed {
		exp, err := expectedDigests()
		if err != nil {
			return nil, err
		}
		for name, want := range exp[wl.Name] {
			if got := out.digests[name]; got != want {
				out.fail("digest %s = %.12s, expected.json says %.12s", name, got, want)
			}
		}
	}

	defs := endToEnd
	if rc.traced() {
		defs = perLayer
		if !rc.smoke {
			v, err := runProbes(rc.tmp)
			if err != nil {
				return nil, err
			}
			for name, x := range v {
				out.values[name] = x
			}
		}
		selfTimes(out, rc.tr)
		harnessHealth(out)
	}
	if out.attempted == 0 {
		out.attempted = 1
	}
	out.values["fail_frac"] = float64(out.failed) / float64(out.attempted)

	rec := &record{
		Workload: wl.Name, Traced: rc.traced(), Controls: ctl,
		result:    result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}},
		Quartiles: map[string][3]float64{}, Digests: out.digests,
	}
	fmt.Fprintf(w, "%-28s %14s %-9s %s\n", "metric", "value", "unit", "q1 .. q3 (samples)")
	for _, d := range defs {
		v, _ := out.get(d.Name) // a metric the workload has no part in reads 0
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		line := fmt.Sprintf("%-28s %14.6g %-9s", d.Name, v, d.Unit)
		if s := out.series[d.Name]; len(s) > 1 {
			q1, _, q3 := quartiles(s)
			rec.Quartiles[d.Name] = [3]float64{q1, q3, float64(len(s))}
			line += fmt.Sprintf(" %.6g .. %.6g (%d)", q1, q3, len(s))
		}
		fmt.Fprintln(w, line)
	}
	names := make([]string, 0, len(out.digests))
	for name := range out.digests {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "digest %s %s\n", name, out.digests[name])
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "note:", n)
	}
	for _, f := range out.failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, total %.1fs\n", out.attempted, out.failed, time.Since(t0).Seconds())
	return rec, nil
}

// selfTimes accounts for every traced bench.pass root and reports, per pass,
// where its wall clock went. (sweepd-mix accounts per request, in sweepd.go.)
func selfTimes(out *outcome, tr *tracer) {
	spans := tr.snapshot()
	var wire []float64
	for i, s := range spans {
		if s.Name == "engine.cell" && s.Remote != "" {
			wire = append(wire, ms(s.dur()-s.RemoteHost))
		}
		if s.Name != "bench.pass" {
			continue
		}
		self := selfByLayer(spans, i)
		out.sample("self.bench_s", self["bench.pass"].Seconds())
		out.sample("self.figures_s", (self["figures.generate"] + self["figures.scaling"] + self["core.sweep"]).Seconds())
		out.sample("self.engine_cell_run_s", self["engine.cell/run"].Seconds())
		out.sample("self.engine_cell_disk_s", self["engine.cell/disk"].Seconds())
		out.sample("self.engine_cell_memo_s", self["engine.cell/memo"].Seconds())
		out.sample("self.report_s", self["report.render"].Seconds())
		out.sample("self.sum_frac", float64(totalOf(self))/float64(s.dur()))
	}
	if len(wire) > 0 {
		out.values["self.remote_wire_ms"] = median(wire)
	}
}

// harnessHealth records the state of the process that measured.
func harnessHealth(out *outcome) {
	out.values["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	out.values["bench.nproc"] = float64(runtime.NumCPU())
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					out.values["bench.rss_peak_mb"] = kb / 1024
				}
			}
		}
	}
}

func writeTraceFile(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, tr.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateExpected runs every workload once at the default seed and writes the
// digests it saw to expected.json, beside this source when run from the
// repository root or from bench/.
func updateExpected(tmp string) error {
	exp := map[string]map[string]string{}
	for i := range workloads {
		wl := &workloads[i]
		out, err := wl.run(&runCtx{seed: defaultSeed, smoke: true, tmp: tmp})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		if out.failed > 0 {
			return fmt.Errorf("%s: %s", wl.Name, strings.Join(out.failures, "; "))
		}
		exp[wl.Name] = out.digests
		fmt.Printf("%s: %v\n", wl.Name, out.digests)
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	path := "expected.json"
	if _, err := os.Stat("bench/main.go"); err == nil {
		path = "bench/expected.json"
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
