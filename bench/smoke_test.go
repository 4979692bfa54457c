package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"partmb/internal/engine"
)

// The sweepd-mix workload starts this binary again as its load generator; in
// a test run "this binary" is the test binary, so it has to answer the same
// way main does.
func TestMain(m *testing.M) {
	if plan := os.Getenv(loadgenEnv); plan != "" {
		os.Exit(loadgenMain(plan))
	}
	os.Exit(m.Run())
}

// TestSmoke runs one pass (or 50 requests) of every workload, so that every
// correctness check executes: digests equal across workloads that must agree,
// equal to expected.json, and nothing left running afterwards.
func TestSmoke(t *testing.T) {
	exp, err := expectedDigests()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	digests := map[string]string{}
	for i := range workloads {
		wl := &workloads[i]
		before := runtime.NumGoroutine()
		out, err := wl.run(&runCtx{seed: defaultSeed, smoke: true, tmp: tmp})
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.Name, out.failed, out.attempted, out.failures)
		}
		if !reflect.DeepEqual(out.digests, exp[wl.Name]) {
			t.Errorf("%s: digests %v, expected.json has %v (run `bench -update` if the change is meant)", wl.Name, out.digests, exp[wl.Name])
		}
		for _, d := range endToEnd {
			if v, ok := out.get(d.Name); !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v", wl.Name, d.Name, v)
			}
		}
		digests[wl.Name] = out.digests["tables"]
		// Every listener, worker and server goroutine must be gone, or one
		// workload's leftovers load the next.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > before {
			buf := make([]byte, 1<<16)
			t.Errorf("%s: %d goroutines before, %d after:\n%s", wl.Name, before, now, buf[:runtime.Stack(buf, true)])
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%s left %d entries in its scratch directory", wl.Name, len(left))
		}
	}
	if digests["figs-cold"] != digests["figs-warm"] {
		t.Error("figs-cold and figs-warm rendered different tables")
	}
	if digests["scale-seq"] != digests["scale-shard"] {
		t.Error("scale-seq and scale-shard rendered different tables")
	}
}

// The figures digest must not depend on the order the figures are generated
// in, since every pass draws its own order.
func TestFiguresDigestIgnoresOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("two figure passes")
	}
	rn := engine.New(engine.Workers(2)) // the memo makes the second pass cheap
	forward, err := figuresPass(rn, nil, 7, figureNumbers, &meter{root: -1})
	if err != nil {
		t.Fatal(err)
	}
	backward, err := figuresPass(rn, nil, 7, []int{13, 12, 11, 10, 9, 8, 7, 6, 5, 4}, &meter{root: -1})
	if err != nil {
		t.Fatal(err)
	}
	if forward != backward {
		t.Fatalf("digest depends on figure order: %s vs %s", forward, backward)
	}
	other, err := figuresPass(engine.New(engine.Workers(2)), nil, 8, figureNumbers, &meter{root: -1})
	if err != nil {
		t.Fatal(err)
	}
	if other == forward {
		t.Fatal("digest does not depend on the seed: the noise figures should")
	}
}

// BENCHMARK.json is written by hand; the program prints from its own tables.
// They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%v\n%v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}
