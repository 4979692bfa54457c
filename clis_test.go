package partmb_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/service"
)

// cliCase drives one verb of cmd/partmb end to end with quick parameters.
type cliCase struct {
	name string
	args []string
	want []string // substrings that must appear in the output
	// fail marks a case that must exit non-zero with a message, not a
	// panic.
	fail bool
}

// TestCLIsRun executes every verb with fast flags and checks for the
// expected report fragments, and the usage errors for the expected
// messages.
func TestCLIsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI execution in -short mode")
	}
	cases := []cliCase{
		{
			name: "partbench",
			args: []string{"run", "-size", "256KiB", "-parts", "8", "-noise", "uniform", "-iters", "3", "-stats"},
			want: []string{"overhead", "early-bird", "sample statistics"},
		},
		{
			name: "partbench-sweep-csv",
			args: []string{"run", "-sweep", "-min", "64KiB", "-max", "256KiB", "-parts", "4", "-iters", "2", "-csv"},
			want: []string{"size,overhead", "64KiB", "256KiB"},
		},
		{
			name: "scaling",
			args: []string{"scaling", "-stencil", "halo3d", "-ranks", "64"},
			want: []string{"halo3d", "weak", "strong"},
		},
		{
			name: "patterns-sweep",
			args: []string{"patterns", "-motif", "sweep3d", "-all-modes", "-px", "2", "-py", "2", "-threads", "4", "-size", "64KiB", "-compute", "1ms", "-repeats", "1"},
			want: []string{"single", "multi", "partitioned", "throughput"},
		},
		{
			name: "patterns-incast",
			args: []string{"patterns", "-motif", "incast", "-mode", "partitioned", "-senders", "3", "-threads", "4", "-size", "64KiB", "-compute", "1ms"},
			want: []string{"partitioned", "throughput"},
		},
		{
			name: "snapproject",
			args: []string{"snap", "-nodes", "2,4", "-total-compute", "50ms"},
			want: []string{"projected speedup", "mpi %"},
		},
		{
			name: "advise",
			args: []string{"advise", "-size", "512KiB", "-compute", "2ms", "-counts", "1,4,8", "-iters", "2"},
			want: []string{"recommended partitions", "availability"},
		},
		{
			name: "figures-quick",
			args: []string{"figures", "-fig", "13", "-scale", "quick"},
			want: []string{"Figure 13", "projected speedup"},
		},
		{
			name: "classic-latency",
			args: []string{"classic", "-bench", "latency", "-min", "8", "-max", "1KiB", "-iters", "10"},
			want: []string{"ping-pong", "latency us"},
		},
		{
			name: "modelcheck",
			args: []string{"modelcheck"},
			want: []string{"closed form", "streaming bandwidth"},
		},
		{
			name: "extensions-pbcast",
			args: []string{"extensions", "-study", "pbcast"},
			want: []string{"partitioned pbcast", "single bcast after join"},
		},
		{
			name: "scaling-rejects-run-flags",
			args: []string{"scaling", "-stencil", "halo3d", "-platform", "epyc-hdr"},
			want: []string{"flag provided but not defined: -platform"},
			fail: true,
		},
		{
			name: "run-rejects-scaling-flags",
			args: []string{"run", "-shards", "2"},
			want: []string{"flag provided but not defined: -shards"},
			fail: true,
		},
		{
			name: "unknown-verb",
			args: []string{"partbench"},
			want: []string{`unknown verb "partbench"`, "verbs:", "run", "scaling", "serve", "work"},
			fail: true,
		},
		{
			name: "run-reversed-size-range",
			args: []string{"run", "-sweep", "-min", "4MiB", "-max", "1MiB"},
			want: []string{"partmb run: core: bad size range"},
			fail: true,
		},
		{
			name: "classic-zero-size-range",
			args: []string{"classic", "-bench", "latency", "-min", "0", "-max", "1KiB"},
			want: []string{"partmb classic: core: bad size range"},
			fail: true,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command("go", append([]string{"run", "./cmd/partmb"}, c.args...)...)
			done := make(chan struct{})
			var out []byte
			var runErr error
			go func() {
				out, runErr = cmd.CombinedOutput()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(3 * time.Minute):
				_ = cmd.Process.Kill()
				t.Fatalf("%s timed out", c.name)
			}
			if c.fail {
				if runErr == nil {
					t.Fatalf("%s succeeded, want a failure:\n%s", c.name, out)
				}
				if strings.Contains(string(out), "goroutine") {
					t.Fatalf("%s panicked instead of failing with a message:\n%s", c.name, out)
				}
			} else if runErr != nil {
				t.Fatalf("%s failed: %v\n%s", c.name, runErr, out)
			}
			for _, want := range c.want {
				if !strings.Contains(string(out), want) {
					t.Fatalf("%s output missing %q:\n%s", c.name, want, out)
				}
			}
		})
	}
}

// runCLI executes one go-run invocation and returns stdout and stderr
// separately (the engine stats line goes to stderr, the tables to stdout).
func runCLI(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		t.Fatalf("go run %v failed: %v\nstderr:\n%s", args, err, errBuf.String())
	}
	return outBuf.String(), errBuf.String()
}

// firstAttemptLost is a remote executor whose worker is lost on the first
// attempt of every cell: it answers a key's first Execute with a transient
// error, the way a reaped lease surfaces, and every later one with
// ErrNoWorkers, so the retry computes the cell locally.
type firstAttemptLost struct{ seen sync.Map }

func (x *firstAttemptLost) Execute(_ context.Context, t engine.RemoteTask) (engine.RemoteResult, error) {
	if _, again := x.seen.LoadOrStore(t.Key, true); again {
		return engine.RemoteResult{}, engine.ErrNoWorkers
	}
	return engine.RemoteResult{}, engine.Transientf("worker lost (cell %.8s)", t.Key)
}

// TestFaultInjectionKeepsTablesIdentical is the acceptance check for the
// retry path: a sweep whose every cell loses its first attempt must render
// a table byte-identical to the failure-free sweep, while the engine stats
// prove the attempts were actually retried.
func TestFaultInjectionKeepsTablesIdentical(t *testing.T) {
	base := core.Config{Partitions: 4, Iterations: 2}
	sizes := core.MessageSizes(1<<10, 64<<10)
	table := func(rn *engine.Runner) string {
		results, err := core.SweepMessageSizes(rn, base, sizes)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := service.ResultTable(base, results).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	clean := table(engine.New())
	rn := engine.New(engine.WithExecutor(new(firstAttemptLost)))
	faulted := table(rn)
	if clean != faulted {
		t.Fatalf("lost attempts changed the table:\nclean:\n%s\nfaulted:\n%s", clean, faulted)
	}
	if st := rn.Stats(); st.Retries != int64(len(sizes)) || st.RemoteErrors != st.Retries {
		t.Fatalf("stats = %+v, want one lost and retried attempt per cell (%d)", st, len(sizes))
	}
}

// TestCacheDirReusesCellsAcrossProcesses: a second `partmb run` invocation
// sharing -cachedir must emit identical tables without re-running a single
// cell.
func TestCacheDirReusesCellsAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI execution in -short mode")
	}
	dir := t.TempDir()
	args := []string{"./cmd/partmb", "run", "-sweep", "-min", "1KiB", "-max", "64KiB", "-parts", "4", "-iters", "2", "-cachedir", dir}
	cold, coldErr := runCLI(t, args...)
	warm, warmErr := runCLI(t, args...)
	if cold != warm {
		t.Fatalf("warm run's tables differ from cold run:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(coldErr, "disk writes") {
		t.Fatalf("cold run persisted nothing:\n%s", coldErr)
	}
	if !strings.Contains(warmErr, " 0 runs,") || !strings.Contains(warmErr, "disk hits") {
		t.Fatalf("warm run recomputed cells instead of loading them:\n%s", warmErr)
	}
}

// TestJournalByteStableAcrossWorkerCounts: the run journal serializes in a
// schedule-independent order with volatile timing omitted, so the same
// sweep on 1 worker and on 8 workers must journal byte-for-byte the same.
func TestJournalByteStableAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI execution in -short mode")
	}
	dir := t.TempDir()
	journals := make([]string, 2)
	for i, workers := range []string{"1", "8"} {
		path := filepath.Join(dir, "j"+workers+".jsonl")
		runCLI(t, "./cmd/partmb", "figures", "-fig", "4", "-scale", "quick",
			"-workers", workers, "-journal", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = string(data)
	}
	if journals[0] != journals[1] {
		t.Fatalf("journal differs between -workers 1 and -workers 8:\n%s\n---\n%s",
			journals[0], journals[1])
	}
	if !strings.Contains(journals[0], `"t":"journal"`) || !strings.Contains(journals[0], `"t":"stats"`) {
		t.Fatalf("journal missing header or stats trailer:\n%s", journals[0])
	}
}

// TestConflictingOutputFlagsRejected: -md with -out used to silently write
// CSV files; it must now fail at startup.
func TestConflictingOutputFlagsRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI execution in -short mode")
	}
	cmd := exec.Command("go", "run", "./cmd/partmb", "run", "-size", "1KiB", "-iters", "1", "-md", "-out", t.TempDir())
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-md -out accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "-md conflicts with -out") {
		t.Fatalf("unexpected failure message:\n%s", out)
	}
}
