package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDispatch drives the scaffold in process: exit codes, where each
// message goes, and the error prefix. Every case fails or finishes before
// any cell is simulated, except the last, which runs one small point.
func TestDispatch(t *testing.T) {
	out := t.TempDir()
	table := filepath.Join(out, "partbench_0.csv")
	cases := []struct {
		args     []string
		code     int
		stdout   string // substring of stdout, when set
		stderr   string // substring of stderr, when set
		noStdout bool   // stdout must stay empty
	}{
		{args: nil, code: 2, stderr: "verbs:", noStdout: true},
		{args: []string{"help"}, code: 0, stdout: "serve"},
		{args: []string{"nosuch"}, code: 2, stderr: `unknown verb "nosuch"`, noStdout: true},
		{args: []string{"run", "-h"}, code: 0, stderr: "Usage of partmb run", noStdout: true},
		{args: []string{"run", "-stencil", "halo3d"}, code: 2, stderr: "flag provided but not defined: -stencil"},
		{args: []string{"scaling", "-samples", "on"}, code: 2, stderr: "flag provided but not defined: -samples"},
		{args: []string{"scaling", "-shards", "0"}, code: 1, stderr: "partmb scaling: -shards 0, must be >= 1"},
		{args: []string{"scaling", "-ranks", "64", "-shards", "32"}, code: 1, stderr: "shards exceed"},
		{args: []string{"scaling", "-topology", "torus"}, code: 1, stderr: `unknown scaling topology "torus"`},
		{args: []string{"run", "-csv", "-md"}, code: 1, stderr: "partmb run: -csv and -md are mutually exclusive"},
		{args: []string{"run", "-sweep", "-min", "4MiB", "-max", "1MiB"}, code: 1, stderr: "partmb run: core: bad size range"},
		{args: []string{"classic", "-min", "0"}, code: 1, stderr: "partmb classic: core: bad size range"},
		{args: []string{"run", "-platform", "specs/missing.json"}, code: 1, stderr: "missing.json"},
		{args: []string{"work", "-parallel", "0"}, code: 1, stderr: "partmb work: -parallel 0"},
		{
			args: []string{"run", "-size", "1KiB", "-parts", "1", "-iters", "1", "-warmup", "0", "-out", out},
			code: 0, stderr: "partmb run: wrote " + table + "\npartmb run: engine: ", noStdout: true,
		},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		code := partmb(c.args, &stdout, &stderr)
		if code != c.code {
			t.Errorf("partmb %v exited %d, want %d\nstderr: %s", c.args, code, c.code, stderr.String())
		}
		if !strings.Contains(stdout.String(), c.stdout) {
			t.Errorf("partmb %v stdout lacks %q:\n%s", c.args, c.stdout, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("partmb %v stderr lacks %q:\n%s", c.args, c.stderr, stderr.String())
		}
		if c.noStdout && stdout.Len() != 0 {
			t.Errorf("partmb %v wrote to stdout:\n%s", c.args, stdout.String())
		}
	}
	if _, err := os.Stat(table); err != nil {
		t.Fatalf("run -out wrote no table: %v", err)
	}
}
