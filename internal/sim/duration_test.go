package sim

import (
	"encoding/json"
	"math"
	"testing"
)

// TestDurationTextRoundTrip pins MarshalText's bytes (keys, journals and cell
// files hash or store them) and checks every value decodes back exactly,
// including the extremes float64 and negation cannot carry.
func TestDurationTextRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		d    Duration
		text string
	}{
		{0, "0s"},
		{900, "900ns"},
		{250 * Microsecond, "250us"},
		{10 * Millisecond, "10ms"},
		{2 * Second, "2s"},
		{-1500 * Millisecond, "-1500ms"},
		{1<<53 + 1, "9007199254740993ns"},
		{-(1<<53 + 1), "-9007199254740993ns"},
		{math.MaxInt64, "9223372036854775807ns"},
		{math.MinInt64, "-9223372036854775808ns"},
	} {
		b, err := tc.d.MarshalText()
		if err != nil || string(b) != tc.text {
			t.Errorf("Duration(%d).MarshalText() = %q, %v; want %q", int64(tc.d), b, err, tc.text)
		}
		var back Duration
		if err := back.UnmarshalText([]byte(tc.text)); err != nil || back != tc.d {
			t.Errorf("UnmarshalText(%q) = %d, %v; want %d", tc.text, int64(back), err, int64(tc.d))
		}
		js, err := json.Marshal(struct{ D Duration }{tc.d})
		if err != nil {
			t.Fatal(err)
		}
		var s struct{ D Duration }
		if err := json.Unmarshal(js, &s); err != nil || s.D != tc.d {
			t.Errorf("JSON round trip of %d via %s = %d, %v", int64(tc.d), js, int64(s.D), err)
		}
	}
}

// TestDurationUnmarshalTextFallsBack: text outside the canonical form still
// decodes the way ParseDuration reads it, and what ParseDuration rejects is
// rejected.
func TestDurationUnmarshalTextFallsBack(t *testing.T) {
	for text, want := range map[string]Duration{
		"1.5s":    1500 * Millisecond,
		" 10 MS ": 10 * Millisecond,
		"+5us":    5 * Microsecond,
		"7":       7,
		"1e3ns":   Microsecond,
		"-0.5ms":  -500 * Microsecond,
	} {
		var d Duration
		if err := d.UnmarshalText([]byte(text)); err != nil || d != want {
			t.Errorf("UnmarshalText(%q) = %d, %v; want %d", text, int64(d), err, int64(want))
		}
	}
	for _, text := range []string{"", "-", "s", "ns", "-ms", "1xs", "9223372036854775808ns", "-9223372036854775809ns", "99999999999s"} {
		var d Duration
		if err := d.UnmarshalText([]byte(text)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted as %d", text, int64(d))
		}
	}
}

func TestDurationTextCodecAllocs(t *testing.T) {
	d := Duration(-1<<53 - 1)
	if n := testing.AllocsPerRun(100, func() { d.MarshalText() }); n != 1 {
		t.Errorf("MarshalText: %v allocations, want 1 (its result)", n)
	}
	text := []byte("9007199254740993ns")
	if n := testing.AllocsPerRun(100, func() { d.UnmarshalText(text) }); n != 0 {
		t.Errorf("UnmarshalText: %v allocations, want 0", n)
	}
}

// FuzzDurationText: every int64 round-trips exactly and formats for display
// without crashing, any text decodes without panicking, and text
// ParseDuration accepts decodes to ParseDuration's value wherever that value
// is exact in float64 (below 2^53 ns).
func FuzzDurationText(f *testing.F) {
	for _, s := range []string{"0s", "10ms", "-9223372036854775808ns", "9007199254740993ns", "1.5s", " 10 MS", "ns", "-", "1e3us", "+5s"} {
		f.Add(s, int64(len(s))<<40+7)
	}
	f.Add("-9223372036854775808ns", int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, text string, n int64) {
		if s := Duration(n).String(); s == "" || (n < 0) != (s[0] == '-') {
			t.Fatalf("Duration(%d).String() = %q", n, s)
		}
		b, err := Duration(n).MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Duration
		if err := back.UnmarshalText(b); err != nil || back != Duration(n) {
			t.Fatalf("%d marshals to %q, which decodes to %d, %v", n, b, int64(back), err)
		}
		var d Duration
		err = d.UnmarshalText([]byte(text))
		_ = d.String()
		if want, perr := ParseDuration(text); perr == nil && want > -1<<53 && want < 1<<53 {
			if err != nil || d != want {
				t.Fatalf("UnmarshalText(%q) = %d, %v; ParseDuration gives %d", text, int64(d), err, int64(want))
			}
		}
	})
}
