package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"partmb/internal/sim"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Span(0, 0, "c", "n", 0, 10, nil)
	r.Instant(0, 0, "c", "n", 0, nil)
	if r.Len() != 0 || r.sortedEvents() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestSpanAndInstant(t *testing.T) {
	var r Recorder
	r.Span(1, 2, "compute", "thread 0", sim.Time(1000), sim.Time(3000), map[string]string{"k": "v"})
	r.Instant(1, 2, "part", "Pready", sim.Time(2000), nil)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	evs := r.sortedEvents()
	if evs[0].Phase != "X" || evs[0].TsUs != 1 || evs[0].DurUs != 2 {
		t.Fatalf("span event = %+v", evs[0])
	}
	if evs[1].Phase != "i" || evs[1].TsUs != 2 {
		t.Fatalf("instant event = %+v", evs[1])
	}
}

func TestEventsSortedByTime(t *testing.T) {
	var r Recorder
	r.Instant(0, 0, "c", "late", sim.Time(5000), nil)
	r.Instant(0, 0, "c", "early", sim.Time(1000), nil)
	evs := r.sortedEvents()
	if evs[0].Name != "early" || evs[1].Name != "late" {
		t.Fatalf("events not sorted: %+v", evs)
	}
}

func TestBackwardsSpanPanics(t *testing.T) {
	var r Recorder
	defer func() {
		if recover() == nil {
			t.Fatal("backwards span did not panic")
		}
	}()
	r.Span(0, 0, "c", "bad", sim.Time(10), sim.Time(5), nil)
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	var r Recorder
	r.Span(0, 1, "compute", "t0", 0, sim.Time(sim.Millisecond), nil)
	r.Instant(0, 1, "join", "join", sim.Time(sim.Millisecond), map[string]string{"iteration": "0"})
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d events, want 2", len(decoded))
	}
	if decoded[0]["ph"] != "X" || decoded[0]["dur"].(float64) != 1000 {
		t.Fatalf("bad first event: %v", decoded[0])
	}
}
