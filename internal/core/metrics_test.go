package core

import (
	"math"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

func TestOverheadRatio(t *testing.T) {
	if got := Overhead(20*sim.Microsecond, 10*sim.Microsecond); got != 2 {
		t.Fatalf("Overhead = %v, want 2", got)
	}
	if got := Overhead(10*sim.Microsecond, 10*sim.Microsecond); got != 1 {
		t.Fatalf("Overhead = %v, want 1", got)
	}
}

func TestOverheadZeroDenomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Overhead(1, 0)
}

func TestPerceivedBandwidth(t *testing.T) {
	// 1 MB in 100us => 10 GB/s.
	got := PerceivedBandwidth(1e6, 100*sim.Microsecond)
	if math.Abs(got-1e10) > 1 {
		t.Fatalf("PerceivedBandwidth = %v, want 1e10", got)
	}
}

func TestAvailabilityBounds(t *testing.T) {
	if got := Availability(0, sim.Millisecond); got != 1 {
		t.Fatalf("no residual comm: availability = %v, want 1", got)
	}
	if got := Availability(sim.Millisecond, sim.Millisecond); got != 0 {
		t.Fatalf("full residual: availability = %v, want 0", got)
	}
	if got := Availability(2*sim.Millisecond, sim.Millisecond); got != -1 {
		t.Fatalf("over-residual: availability = %v, want -1", got)
	}
}

func TestEarlyBirdPct(t *testing.T) {
	if got := EarlyBirdPct(75*sim.Microsecond, 100*sim.Microsecond); got != 75 {
		t.Fatalf("EarlyBirdPct = %v, want 75", got)
	}
	if got := EarlyBirdPct(0, 100*sim.Microsecond); got != 0 {
		t.Fatalf("EarlyBirdPct = %v, want 0", got)
	}
}

func TestSplitAtJoin(t *testing.T) {
	first, last := sim.Time(100), sim.Time(300)
	cases := []struct {
		join          sim.Time
		before, after sim.Duration
	}{
		{50, 0, 200},  // join before any comm: all after
		{100, 0, 200}, // join at first ready
		{200, 100, 100},
		{300, 200, 0}, // join at last arrival
		{400, 200, 0}, // join after everything
	}
	for _, c := range cases {
		b, a := splitAtJoin(first, last, c.join)
		if b != c.before || a != c.after {
			t.Errorf("splitAtJoin(join=%d) = (%v,%v), want (%v,%v)", c.join, b, a, c.before, c.after)
		}
	}
}

func TestSplitAtJoinInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	splitAtJoin(100, 50, 75)
}

// Property: before+after always equals the communication span and both are
// non-negative.
func TestQuickSplitConserves(t *testing.T) {
	f := func(a, b, j uint32) bool {
		first := sim.Time(a % 1e6)
		last := first.Add(sim.Duration(b % 1e6))
		join := sim.Time(j % 2e6)
		before, after := splitAtJoin(first, last, join)
		return before >= 0 && after >= 0 && before+after == last.Sub(first)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSizes(t *testing.T) {
	got := MessageSizes(1<<10, 1<<13)
	want := []int64{1024, 2048, 4096, 8192}
	if len(got) != len(want) {
		t.Fatalf("MessageSizes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MessageSizes = %v, want %v", got, want)
		}
	}
}

// TestSizeRangeRejects: an empty or non-positive range from a user is an
// error, not the panic MessageSizes raises for a literal one.
func TestSizeRangeRejects(t *testing.T) {
	for _, r := range [][2]int64{{4 << 20, 1 << 20}, {0, 1 << 10}, {-8, 8}} {
		if sizes, err := SizeRange(r[0], r[1]); err == nil {
			t.Errorf("SizeRange(%d, %d) = %v, want an error", r[0], r[1], sizes)
		}
	}
}

// TestMessageSizesOverflowGuard: with max within 2x of MaxInt64, the naive
// s *= 2 loop wrapped negative and never terminated.
func TestMessageSizesOverflowGuard(t *testing.T) {
	if got := MessageSizes(1<<62, math.MaxInt64); len(got) != 1 || got[0] != 1<<62 {
		t.Fatalf("MessageSizes(1<<62, MaxInt64) = %v, want [1<<62]", got)
	}
	if got := MessageSizes(math.MaxInt64, math.MaxInt64); len(got) != 1 || got[0] != math.MaxInt64 {
		t.Fatalf("MessageSizes(MaxInt64, MaxInt64) = %v, want [MaxInt64]", got)
	}
	got := MessageSizes(3, math.MaxInt64)
	if len(got) != 62 {
		t.Fatalf("MessageSizes(3, MaxInt64) has %d entries: %v", len(got), got)
	}
	for i, s := range got {
		if s <= 0 || s > math.MaxInt64-2 {
			t.Fatalf("entry %d out of range: %v", i, got)
		}
		if i > 0 && s != 2*got[i-1] {
			t.Fatalf("entry %d is not a doubling: %v", i, got)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512B",
		1 << 10: "1KiB",
		1 << 20: "1MiB",
		1 << 30: "1GiB",
		1536:    "1536B",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
