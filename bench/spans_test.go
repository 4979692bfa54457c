package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

const msec = time.Millisecond

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	parent := span{Name: "figures.generate", Start: 0, End: 100 * msec}
	children := []span{
		{Name: "engine.cell", Start: 10 * msec, End: 50 * msec},  // lane 0
		{Name: "engine.cell", Start: 30 * msec, End: 70 * msec},  // lane 1, overlaps lane 0 for 20 ms
		{Name: "engine.cell", Start: 90 * msec, End: 120 * msec}, // clipped to the parent's end
	}
	// Covered: [10,70) and [90,100) = 70 ms; the sum of lengths would be 110.
	if got := selfTime(parent, children); got != 30*msec {
		t.Fatalf("self time = %v, want 30ms", got)
	}
}

func TestAttributeSplitsOverlapBetweenClasses(t *testing.T) {
	got := attribute([]interval{
		{0, 40 * msec, "run"},
		{20 * msec, 60 * msec, "disk"},
		{50 * msec, 60 * msec, "disk"},
	})
	// [0,20) run alone; [20,40) shared by two; [40,50) disk alone; [50,60)
	// two disk intervals. Shares add up to the 60 ms union.
	if got["run"] != 30*msec || got["disk"] != 30*msec {
		t.Fatalf("shares = %v, want run 30ms, disk 30ms", got)
	}
}

func TestSelfByLayerAddsUpToTheRoot(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", Start: 0, End: 100 * msec, Parent: -1},
		{Name: "figures.generate", Start: 5 * msec, End: 60 * msec, Parent: 0},
		{Name: "engine.cell", Start: 10 * msec, End: 40 * msec, Parent: 1, Class: "run"},
		{Name: "engine.cell", Start: 20 * msec, End: 55 * msec, Parent: 1, Class: "disk"},
		{Name: "report.render", Start: 70 * msec, End: 90 * msec, Parent: 0},
		{Name: "bench.pass", Start: 200 * msec, End: 300 * msec, Parent: -1}, // another pass: not counted
	}
	self := selfByLayer(spans, 0)
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100*msec {
		t.Fatalf("self times sum to %v, want the root's 100ms: %v", sum, self)
	}
	want := map[string]time.Duration{
		"bench.pass":       25 * msec, // 100 - 55 (figure) - 20 (render)
		"figures.generate": 10 * msec, // 55 - union [10,55)
		"engine.cell/run":  20 * msec, // [10,20) + half of [20,40)
		"engine.cell/disk": 25 * msec, // half of [20,40) + [40,55)
		"report.render":    20 * msec,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("%s = %v, want %v", name, self[name], d)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	err := writeChromeTrace(&buf, []span{
		{Name: "bench.pass", Start: 0, End: msec, Parent: -1, ID: 3},
		{Name: "engine.cell", Start: 0, End: msec, Parent: 0, ID: 3, Class: "run", Remote: "w1", RemoteHost: msec / 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1]["dur"].(float64) != 1000 {
		t.Fatalf("unexpected trace: %s", buf.String())
	}
}
