package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestTiny mutates testdata/tiny and checks every mutant's verdict: the
// clamp comparisons' swaps are equivalent and survive, and the mutant of
// Next that panics TestIndex is credited to TestNext as well, which only
// the rerun after the panic reaches.
func TestTiny(t *testing.T) {
	var out, log bytes.Buffer
	if err := run([]string{"./testdata/tiny"}, &out, &log, 2); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		for i, k := range r.Tests {
			r.Tests[i] = strings.TrimPrefix(k, "partmb/tools/mutate/testdata/tiny:")
		}
		got[r.Func+" "+r.Op+" "+r.Orig] = r.Status + " " + strings.Join(r.Tests, ",")
	}
	want := map[string]string{
		"Clamp return early return *new(int);": "killed TestClamp",
		"Clamp negate x < lo":                  "killed TestClamp",
		"Clamp < to <= x < lo":                 "survived ",
		"Clamp negate x > hi":                  "killed TestClamp",
		"Clamp > to >= x > hi":                 "survived ",
		"Next return early return *new(int);":  "killed TestNext",
		"Next + to - i + 1":                    "killed TestIndex,TestNext",
		"Next zero 1":                          "killed TestNext",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: got %q, want %q", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected mutant %s: %s", k, got[k])
		}
	}
	if s := log.String(); !strings.Contains(s, `"mutants":8,"killed":6,"timeout":0,"survived":2`) {
		t.Errorf("summary %q", s)
	}
}
