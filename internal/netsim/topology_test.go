package netsim

import (
	"strings"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

func TestUniformTopology(t *testing.T) {
	u := Uniform{L: 900 * sim.Nanosecond}
	if u.Latency(0, 5) != u.Latency(3, 1) {
		t.Fatal("uniform latency differs across pairs")
	}
	if !strings.Contains(u.Describe(), "uniform") {
		t.Fatalf("Describe = %q", u.Describe())
	}
}

func TestDragonflyPlusWings(t *testing.T) {
	d := NewDragonflyPlus(4, 900*sim.Nanosecond, 1800*sim.Nanosecond)
	if d.wing(3) != 0 || d.wing(4) != 1 || d.wing(11) != 2 {
		t.Fatalf("wing mapping wrong: %d %d %d", d.wing(3), d.wing(4), d.wing(11))
	}
	if got := d.Latency(0, 3); got != 900*sim.Nanosecond {
		t.Fatalf("intra-wing latency = %v", got)
	}
	if got := d.Latency(0, 4); got != 1800*sim.Nanosecond {
		t.Fatalf("inter-wing latency = %v", got)
	}
	if !strings.Contains(d.Describe(), "dragonfly+") {
		t.Fatalf("Describe = %q", d.Describe())
	}
}

func TestDragonflyPlusValidation(t *testing.T) {
	mustPanic(t, "wing size must be positive", func() { NewDragonflyPlus(0, 1, 2) })
	mustPanic(t, "need 0 <= intra <= inter latency", func() { NewDragonflyPlus(4, 2, 1) })
	mustPanic(t, "need 0 <= intra <= inter latency", func() { NewDragonflyPlus(4, -1, 1) })
	NewDragonflyPlus(4, 0, 0) // zero and equal latencies are allowed
}

// Property: dragonfly latency is symmetric and bounded by [intra, inter].
func TestQuickDragonflySymmetry(t *testing.T) {
	d := NewDragonflyPlus(8, sim.Microsecond, 2*sim.Microsecond)
	f := func(a, b uint8) bool {
		la := d.Latency(int(a), int(b))
		lb := d.Latency(int(b), int(a))
		return la == lb && la >= d.Intra && la <= d.Inter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
