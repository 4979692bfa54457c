// Command partmb is the benchmark's one program. Each experiment of the
// paper's evaluation, the studies beyond it, the sweep service and its
// workers is a verb:
//
//	partmb run -size 1MiB -parts 16 -compute 10ms -noise uniform -noise-pct 4
//	partmb run -sweep -min 1KiB -max 64MiB -parts 32 -cache cold
//	partmb scaling -stencil halo3d -ranks 512 -shards 8
//	partmb figures -fig all -scale full -out data/
//	partmb serve -addr 127.0.0.1:8080 -cachedir .cellcache
//	partmb work -coordinator http://127.0.0.1:8080 -parallel 4
//
// `partmb <verb> -h` lists a verb's flags. Every verb but work takes the
// engine flags (-workers, -cachedir, -journal, ...), and the verbs that
// emit tables take the output flags (-csv, -md, -spark, -out). The verb
// owns its own flags and the code that builds its tables; this file owns
// the rest: dispatch, the shared flags, the runner, emitting, the
// observability artifacts, the engine stats line and the exit code.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"partmb/internal/engine"
	"partmb/internal/report"
)

// A verb is one experiment or service of the program.
type verb struct {
	name, summary string
	// tool names the verb in its journal and metrics headers.
	tool string
	// engine, samples and output select the shared flags registered
	// besides the verb's own: the engine flags, -samples, and the table
	// output flags.
	engine, samples, output bool
	// setup registers the verb's own flags and returns its body, which
	// runs once the flags parse.
	setup func(fs *flag.FlagSet) func(*cli) error
}

// verbs lists the verbs in help order.
var verbs = []verb{
	{name: "run", tool: "partbench", engine: true, samples: true, output: true, setup: runVerb,
		summary: "the §3.1 partitioned metrics at one point or over a message-size sweep"},
	{name: "scaling", tool: "partbench-scaling", engine: true, output: true, setup: scalingVerb,
		summary: "weak and strong stencil scaling on the sharded event loop"},
	{name: "patterns", tool: "patterns", engine: true, samples: true, output: true, setup: patternsVerb,
		summary: "Sweep3D, Halo3D/2D and incast under the three threading modes (§4.6–4.7)"},
	{name: "figures", tool: "figures", engine: true, samples: true, output: true, setup: figuresVerb,
		summary: "the data series behind the paper's Figures 4–13"},
	{name: "classic", tool: "classic", engine: true, samples: true, output: true, setup: classicVerb,
		summary: "OSU/SMB-style micro-benchmarks and their partitioned variants"},
	{name: "advise", tool: "advise", engine: true, samples: true, setup: adviseVerb,
		summary: "recommend a partition count for a message size and compute load (§6)"},
	{name: "snap", tool: "snapproject", engine: true, samples: true, output: true, setup: snapVerb,
		summary: "the SNAP proxy profile and projected partitioned speedup (§4.8)"},
	{name: "modelcheck", tool: "modelcheck", engine: true, samples: true, setup: modelcheckVerb,
		summary: "a platform's model parameters, closed form against simulated"},
	{name: "extensions", tool: "extensions", engine: true, samples: true, setup: extensionsVerb,
		summary: "the studies beyond the paper's evaluation (§6.1 future work)"},
	{name: "serve", tool: "sweepd", engine: true, setup: serveVerb,
		summary: "serve sweep specs over HTTP from the cell cache"},
	{name: "work", setup: workVerb,
		summary: "execute cells for a distributed serve coordinator"},
}

func main() { os.Exit(partmb(os.Args[1:], os.Stdout, os.Stderr)) }

// partmb runs the verb args name and returns the exit code: 0, 1 when the
// verb fails, 2 for a usage error.
func partmb(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	}
	var v *verb
	for i := range verbs {
		if verbs[i].name == args[0] {
			v = &verbs[i]
		}
	}
	if v == nil {
		fmt.Fprintf(stderr, "partmb: unknown verb %q\n", args[0])
		usage(stderr)
		return 2
	}
	c := &cli{verb: v, stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("partmb "+v.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	if v.engine {
		c.eng.RegisterFlags(fs, v.samples)
	}
	if v.output {
		c.out.RegisterFlags(fs)
	}
	body := v.setup(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := c.run(body); err != nil {
		c.logf("%v", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: partmb <verb> [flags]; partmb <verb> -h lists a verb's flags")
	fmt.Fprintln(w, "\nverbs:")
	for _, v := range verbs {
		fmt.Fprintf(w, "  %-11s %s\n", v.name, v.summary)
	}
}

// cli is what a verb's body gets: the parsed shared flags and the helpers
// every verb's output goes through.
type cli struct {
	verb   *verb
	eng    engineFlags
	out    output
	stdout io.Writer
	stderr io.Writer
	// rn is the runner the body built; run finishes it.
	rn *engine.Runner
}

// run checks the output flags, runs the body, then writes the
// observability artifacts and the engine stats line of the runner the
// body built, if any.
func (c *cli) run(body func(*cli) error) error {
	if err := c.out.Validate(); err != nil {
		return err
	}
	if err := body(c); err != nil {
		return err
	}
	if c.rn == nil {
		return nil
	}
	if err := c.eng.Finish(c.verb.tool); err != nil {
		return err
	}
	c.logf("engine: %s", c.rn.Stats())
	return nil
}

// logf writes one line to stderr under the verb's prefix.
func (c *cli) logf(format string, args ...any) {
	fmt.Fprintf(c.stderr, "partmb %s: %s\n", c.verb.name, fmt.Sprintf(format, args...))
}

// runner builds the engine runner from the engine flags, with any extra
// options, and labels its cells with experiment.
func (c *cli) runner(experiment string, extra ...engine.Option) (*engine.Runner, error) {
	rn, err := c.eng.Runner(extra...)
	if err != nil {
		return nil, err
	}
	rn.SetExperiment(experiment)
	c.rn = rn
	return rn, nil
}

// emit writes tables to stdout in the selected format or, with -out, to
// the CSV files "<prefix>_<i>.csv", logging each file written.
func (c *cli) emit(tables []*report.Table, prefix string) error {
	paths, err := c.out.Emit(c.stdout, tables, prefix)
	for _, p := range paths {
		c.logf("wrote %s", p)
	}
	return err
}
