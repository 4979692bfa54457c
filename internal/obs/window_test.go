package obs

import (
	"testing"

	"partmb/internal/stats"
)

func TestWindowWrapsAndSnapshotOrder(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		w.Add(v)
	}
	if w.Count() != 5 || len(w.buf) != 3 {
		t.Fatalf("count %d cap %d", w.Count(), len(w.buf))
	}
	snap := w.snapshot()
	want := []float64{3, 4, 5}
	if len(snap) != len(want) {
		t.Fatalf("snapshot = %v, want %v", snap, want)
	}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot = %v, want %v (oldest first)", snap, want)
		}
	}
}

func TestWindowPercentiles(t *testing.T) {
	w := NewWindow(100)
	for i := 1; i <= 100; i++ {
		w.Add(float64(i))
	}
	ps := w.Percentiles(50, 99)
	if ps[0] < 50 || ps[0] > 51 || ps[1] < 99 || ps[1] > 100 {
		t.Fatalf("percentiles = %v", ps)
	}
	if s := stats.Summarize(w.snapshot()); s.Mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", s.Mean)
	}

	empty := NewWindow(4)
	if got := empty.Percentiles(50, 95, 99); got[0] != 0 || got[2] != 0 {
		t.Fatalf("empty percentiles = %v, want zeros", got)
	}
}

func TestWindowTinyCapacity(t *testing.T) {
	w := NewWindow(0) // clamped to 1
	w.Add(7)
	w.Add(9)
	if snap := w.snapshot(); len(snap) != 1 || snap[0] != 9 {
		t.Fatalf("snapshot = %v, want [9]", snap)
	}
}
