// Command sweepworker executes benchmark cells for a distributed sweep
// coordinator (sweepd -distributed, or any embedder of internal/remote's
// Coordinator). It registers over the schema-versioned wire protocol,
// heartbeats, long-polls for tasks, runs each cell through the registered
// cell kinds (every experiment family is linked in, so every kind is
// served), and posts the cell's result JSON plus its measured host-ns cost
// back — the result goes into the engine's cache, the cost into its
// per-worker telemetry (stats line, metrics, trace lanes). The simulator is
// deterministic and cells are content-addressed, so a cell computed here is
// byte-identical to one computed locally; adding workers changes only
// wall-clock time, never results.
//
// Example:
//
//	sweepworker -coordinator http://127.0.0.1:8080 -parallel 4
//
// SIGTERM/SIGINT finishes in-flight cells, deregisters, and exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partmb/internal/engine"
	"partmb/internal/remote"

	// Each family registers its cell kinds with the engine.
	_ "partmb/internal/classic"
	_ "partmb/internal/core"
	_ "partmb/internal/patterns"
	_ "partmb/internal/snap"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL")
		name        = flag.String("name", "", "worker display name for journals/metrics/traces (default host-pid)")
		parallel    = flag.Int("parallel", 1, "cells executed concurrently")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "liveness ping period (keep well under the coordinator's -worker-timeout)")
		pollWait    = flag.Duration("poll-wait", 10*time.Second, "long-poll duration per task request")
		throttle    = flag.Duration("throttle", 0, "artificial delay before each cell (testing aid)")
	)
	flag.Parse()

	if *name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *parallel < 1 {
		fatal(fmt.Errorf("-parallel %d, must be at least 1", *parallel))
	}

	w := remote.NewWorker(remote.WorkerConfig{
		Coordinator: strings.TrimRight(*coordinator, "/"),
		Name:        *name,
		Parallel:    *parallel,
		Heartbeat:   *heartbeat,
		PollWait:    *pollWait,
		Throttle:    *throttle,
		Logf:        log.New(os.Stderr, "", 0).Printf,
	})

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	fmt.Fprintf(os.Stderr, "sweepworker: %s serving %v for %s\n", *name, engine.Kinds(), *coordinator)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sweepworker: %s executed %d cells\n", *name, w.Executed())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweepworker:", err)
	os.Exit(1)
}
