package partmb_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun executes every example program end to end. Examples are
// demos that must run; they keep no API alive: the callers guard
// (TestInternalEntryPointsHaveCallers) does not count them as callers.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example execution in -short mode")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d examples present, want at least 3", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ctxCmd := exec.Command("go", "run", "./"+filepath.Join("examples", name))
			ctxCmd.Env = os.Environ()
			done := make(chan error, 1)
			var out []byte
			go func() {
				var runErr error
				out, runErr = ctxCmd.CombinedOutput()
				done <- runErr
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("example %s failed: %v\n%s", name, err, out)
				}
				if len(out) == 0 {
					t.Fatalf("example %s produced no output", name)
				}
			case <-time.After(2 * time.Minute):
				_ = ctxCmd.Process.Kill()
				t.Fatalf("example %s timed out", name)
			}
		})
	}
}
