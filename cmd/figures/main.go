// Command figures regenerates the data series behind every figure of the
// paper's evaluation (Figures 4–13), as text tables on stdout or CSV files
// in a directory. Cells run in parallel on the experiment engine and are
// memoized by configuration hash, so cells shared between figures simulate
// once per invocation.
//
// Examples:
//
//	figures -fig 4                    # one figure, quick scale, text
//	figures -fig all -scale full      # everything at paper scale
//	figures -fig 9 -out data/ -csv    # write data/fig09_*.csv
//	figures -fig all -platform epyc-hdr -workers 4
//	figures -fig all -cachedir .cellcache        # reuse cells across runs
//	figures -fig all -journal run.jsonl -tracefile sched.json   # observability
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"partmb/internal/cliutil"
	"partmb/internal/figures"
	"partmb/internal/platform"
)

func main() {
	var (
		figStr      = flag.String("fig", "all", "figure number (4..13) or 'all'")
		scaleStr    = flag.String("scale", "quick", "sweep scale: quick|full")
		platformStr = flag.String("platform", "", "platform preset name or spec JSON path (default niagara-edr)")
		eng         cliutil.EngineFlags
		out         cliutil.Output
	)
	eng.RegisterFlags(flag.CommandLine)
	out.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := out.Validate(); err != nil {
		fatal(err)
	}

	sc, err := figures.ScaleByName(*scaleStr)
	if err != nil {
		fatal(err)
	}

	rn, err := eng.Runner()
	if err != nil {
		fatal(err)
	}
	env := figures.Env{Runner: rn}
	if *platformStr != "" {
		if env.Spec, err = platform.Resolve(*platformStr); err != nil {
			fatal(err)
		}
	}
	if env.Adaptive, err = eng.RunConfig(); err != nil {
		fatal(err)
	}

	var figs []int
	if *figStr == "all" {
		figs = figures.Numbers()
	} else {
		n, err := strconv.Atoi(*figStr)
		if err != nil {
			fatal(fmt.Errorf("bad -fig %q", *figStr))
		}
		figs = []int{n}
	}

	for _, fig := range figs {
		fmt.Fprintf(os.Stderr, "figures: generating figure %d (%s scale)...\n", fig, sc.Name)
		tables, err := env.Generate(fig, sc)
		if err != nil {
			fatal(err)
		}
		paths, err := out.Emit(os.Stdout, tables, cliutil.IndexedName("fig%02d_%%d.csv", fig))
		if err != nil {
			fatal(err)
		}
		for _, p := range paths {
			fmt.Fprintf(os.Stderr, "figures: wrote %s\n", p)
		}
	}
	if err := eng.Finish("figures"); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "figures: engine: %s\n", env.Runner.Stats())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
