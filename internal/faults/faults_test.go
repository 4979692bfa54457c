package faults

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"partmb/internal/engine"
)

func TestParse(t *testing.T) {
	for _, spec := range []string{"", "none", "off", "  NONE  "} {
		in, err := Parse(spec)
		if in != nil || err != nil {
			t.Fatalf("Parse(%q) = %v, %v, want nil, nil", spec, in, err)
		}
	}
	in, err := Parse("drop:0.3")
	if err != nil || in.mode != Drop || in.prob != 0.3 || in.seed != DefaultSeed {
		t.Fatalf("Parse(drop:0.3) = %+v, %v", in, err)
	}
	in, err = Parse("flaky:0.5:7")
	if err != nil || in.mode != FlakyNIC || in.prob != 0.5 || in.seed != 7 {
		t.Fatalf("Parse(flaky:0.5:7) = %+v, %v", in, err)
	}
	if in.String() != "flaky:0.5:7" {
		t.Fatalf("String = %q", in.String())
	}
	for _, bad := range []string{"drop", "drop:x", "drop:1.5", "drop:-0.1", "bogus:0.5", "drop:0.1:zz", "a:0.1:2:3"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"drop": Drop, "delay": DelaySpike, "delay-spike": DelaySpike, "spike": DelaySpike,
		"flaky": FlakyNIC, "flaky-nic": FlakyNIC, "nic": FlakyNIC, " Drop ": Drop,
	} {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Fatalf("ParseMode(%q) = %v, %v", s, m, err)
		}
	}
	if _, err := ParseMode("fiber-seeking backhoe"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestInjectorDeterministic: the schedule is a pure function of
// (seed, mode, key, attempt) — repeated queries agree, and the injected
// errors are transient with reproducible messages.
func TestInjectorDeterministic(t *testing.T) {
	for _, mode := range []Mode{Drop, DelaySpike, FlakyNIC} {
		a, _ := New(mode, 0.5, 1)
		b, _ := New(mode, 0.5, 1)
		other, _ := New(mode, 0.5, 2)
		sameAsOther := true
		for cell := 0; cell < 16; cell++ {
			key := fmt.Sprintf("cell-%d", cell)
			for attempt := 1; attempt <= 4; attempt++ {
				ea, eb := a.Inject(key, attempt), b.Inject(key, attempt)
				switch {
				case (ea == nil) != (eb == nil):
					t.Fatalf("%v: schedules diverge at (%s, %d)", mode, key, attempt)
				case ea != nil && ea.Error() != eb.Error():
					t.Fatalf("%v: messages diverge: %q vs %q", mode, ea, eb)
				case ea != nil && !engine.IsTransient(ea):
					t.Fatalf("%v: injected error not transient: %v", mode, ea)
				}
				if (ea == nil) != (other.Inject(key, attempt) == nil) {
					sameAsOther = false
				}
			}
		}
		if sameAsOther {
			t.Fatalf("%v: seed does not influence the schedule", mode)
		}
	}
}

// TestFlakyNICBurstShape: a flaky cell fails a contiguous prefix of 1–3
// attempts and then recovers for good.
func TestFlakyNICBurstShape(t *testing.T) {
	in, err := New(FlakyNIC, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	flakyCells := 0
	for cell := 0; cell < 32; cell++ {
		key := fmt.Sprintf("cell-%d", cell)
		burst := 0
		for attempt := 1; attempt <= 8; attempt++ {
			if in.Inject(key, attempt) != nil {
				if attempt != burst+1 {
					t.Fatalf("%s: failure at attempt %d after recovery", key, attempt)
				}
				burst = attempt
			}
		}
		if burst > 3 {
			t.Fatalf("%s: burst of %d, want <= 3", key, burst)
		}
		if burst > 0 {
			flakyCells++
		}
	}
	if flakyCells == 0 || flakyCells == 32 {
		t.Fatalf("flaky cells = %d of 32, want a proper subset at prob 0.5", flakyCells)
	}
	if in.Injected() == 0 {
		t.Fatal("Injected counter did not advance")
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	if in.Inject("k", 1) != nil || in.Injected() != 0 || in.String() != "none" {
		t.Fatal("nil injector not a no-op")
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the determinism acceptance
// check: the same seed and fault schedule produce identical results AND
// identical engine counters at 1 and at 8 workers, because injection
// decisions depend only on (key, attempt), never on scheduling.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) ([]any, engine.Stats) {
		in, err := New(Drop, 0.4, 7)
		if err != nil {
			t.Fatal(err)
		}
		rn := engine.New(
			engine.Workers(workers),
			engine.WithFaults(in),
			engine.WithRetry(engine.RetryPolicy{MaxAttempts: 8}),
		)
		res, err := rn.Map(context.Background(), 32, func(_ context.Context, i int) (any, error) {
			return rn.Do(fmt.Sprintf("cell-%d", i), func() (any, error) { return i * i, nil })
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, rn.Stats()
	}
	res1, st1 := run(1)
	res8, st8 := run(8)
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("results differ between worker counts:\n1: %v\n8: %v", res1, res8)
	}
	if st1.Runs != st8.Runs || st1.Retries != st8.Retries || st1.Faults != st8.Faults {
		t.Fatalf("counters differ between worker counts:\n1: %+v\n8: %+v", st1, st8)
	}
	if st1.Retries == 0 || st1.Faults == 0 {
		t.Fatalf("schedule injected nothing (stats %+v) — the test is vacuous", st1)
	}
	if !reflect.DeepEqual(st1.Attempts, st8.Attempts) {
		t.Fatalf("attempt maps differ:\n1: %v\n8: %v", st1.Attempts, st8.Attempts)
	}
}

// TestLPTSweepReportsSmallestFaultedIndex is the scheduler's fail-fast
// determinism check under injected faults: with retries disabled every
// injected fault is a real cell error, and with an adversarial cost function
// the engine dispatches the LARGEST indices first — yet the sweep must always
// report the error of the smallest faulted index, at every worker count.
func TestLPTSweepReportsSmallestFaultedIndex(t *testing.T) {
	const n, seed, prob = 32, 11, 0.25
	key := func(i int) string { return fmt.Sprintf("cell-%02d", i) }
	probe, err := New(Drop, prob, seed)
	if err != nil {
		t.Fatal(err)
	}
	want := -1
	for i := 0; i < n; i++ {
		if probe.Inject(key(i), 1) != nil {
			want = i
			break
		}
	}
	if want < 0 {
		t.Fatalf("seed %d faults no cell in %d — pick another seed", seed, n)
	}
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 5; trial++ {
			in, err := New(Drop, prob, seed)
			if err != nil {
				t.Fatal(err)
			}
			rn := engine.New(
				engine.Workers(workers),
				engine.WithFaults(in),
				engine.WithRetry(engine.RetryPolicy{MaxAttempts: 1}),
			)
			bigFirst := func(i int) float64 { return float64(i + 1) }
			_, err = rn.Sweep(context.Background(), n, bigFirst, func(_ context.Context, i int) (any, error) {
				return rn.Do(key(i), func() (any, error) { return i, nil })
			})
			if err == nil || !strings.Contains(err.Error(), "(cell "+key(want)+",") {
				t.Fatalf("workers=%d trial %d: err = %v, want the fault at %s", workers, trial, err, key(want))
			}
		}
	}
}

// TestFaultedSweepMatchesFaultFree: with retries enabled, an injected sweep
// returns the same values as a fault-free one — faults cost attempts, not
// correctness.
func TestFaultedSweepMatchesFaultFree(t *testing.T) {
	sweep := func(fi *Injector) []any {
		opts := []engine.Option{engine.Workers(4), engine.WithRetry(engine.RetryPolicy{MaxAttempts: 8})}
		if fi != nil {
			opts = append(opts, engine.WithFaults(fi))
		}
		rn := engine.New(opts...)
		res, err := rn.Map(context.Background(), 24, func(_ context.Context, i int) (any, error) {
			return rn.Do(fmt.Sprintf("cell-%d", i), func() (any, error) { return 3 * i, nil })
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	in, err := New(DelaySpike, 0.3, DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if clean, faulted := sweep(nil), sweep(in); !reflect.DeepEqual(clean, faulted) {
		t.Fatalf("faulted sweep changed results:\nclean:   %v\nfaulted: %v", clean, faulted)
	}
	if in.Injected() == 0 {
		t.Fatal("no faults injected — the comparison is vacuous")
	}
}
