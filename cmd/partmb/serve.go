package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partmb/internal/engine"
	"partmb/internal/remote"
	"partmb/internal/service"
)

// serveVerb serves the sweep engine over HTTP: a long-lived daemon that
// accepts run-shaped sweep specs as JSON, answers from the persistent cell
// cache, runs misses through the engine (identical concurrent specs
// collapse into one run), and streams per-cell progress over SSE. Tables
// served over HTTP are byte-identical to `partmb run` output for the same
// spec:
//
//	partmb serve -addr 127.0.0.1:8080 -cachedir .cellcache -cache-max 256MiB
//	curl -d '{"sweep":true,"max":"1MiB"}' 'localhost:8080/v1/sweep?format=csv'
//	curl -N -d '{"size":"4MiB"}' 'localhost:8080/v1/sweep?stream=1'
//
// SIGTERM/SIGINT drains: in-flight sweeps finish (bounded by
// -drain-timeout), new requests get 503, then the process exits.
func serveVerb(fs *flag.FlagSet) func(*cli) error {
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	maxActive := fs.Int("max-active", 4, "sweeps running concurrently")
	queue := fs.Int("queue", 8, "sweeps waiting behind the active ones before 429s")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight sweeps")
	distributed := fs.Bool("distributed", false, "accept work registrations on /v1/workers/ and dispatch cells to them (local fallback when none are registered)")
	workerTimeout := fs.Duration("worker-timeout", remote.DefaultHeartbeatTimeout, "declare a silent worker lost after this long (with -distributed)")
	return func(c *cli) error {
		// One fan-out feeds the per-request subscribers (SSE, tally
		// headers) and, when observability flags are set, the flags'
		// collector. The runner's memo is ephemeral: a daemon that pinned
		// every result in memory would grow without bound, so the disk
		// cache (with its byte budget) is the store of record.
		fan := engine.NewFanOut()
		opts := []engine.Option{engine.WithSingleFlight(), engine.WithObserver(fan)}

		// With -distributed, a coordinator dispatches cells to registered
		// workers; results flow through the same single-flight and disk
		// cache layers, so distributed sweeps serve (and populate) the
		// exact same cache local ones do.
		var coord *remote.Coordinator
		if *distributed {
			coord = remote.NewCoordinator(remote.CoordinatorConfig{
				HeartbeatTimeout: *workerTimeout,
				Logf:             log.New(c.stderr, "partmb serve: ", 0).Printf,
			})
			defer coord.Close()
			opts = append(opts, engine.WithExecutor(coord))
		}
		rn, err := c.runner("sweepd", opts...)
		if err != nil {
			return err
		}
		if c.eng.col != nil {
			fan.Add(c.eng.col)
		}
		srv := service.New(service.Config{
			Runner:     rn,
			Fan:        fan,
			Disk:       c.eng.disk,
			MaxActive:  *maxActive,
			QueueDepth: *queue,
			RetryAfter: *retryAfter,
		})
		var root http.Handler = srv
		if coord != nil {
			mux := http.NewServeMux()
			mux.Handle("/v1/workers", coord)
			mux.Handle("/v1/workers/", coord)
			mux.Handle("/", srv)
			root = mux
		}

		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		mode := "local"
		if *distributed {
			mode = "distributed"
		}
		c.logf("listening on http://%s (%s)", ln.Addr(), mode)
		hs := &http.Server{Handler: root}
		serveErr := make(chan error, 1)
		go func() { serveErr <- hs.Serve(ln) }()

		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		select {
		case err := <-serveErr:
			return err
		case got := <-sig:
			c.logf("%v: draining", got)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			c.logf("%v (exiting anyway)", err)
		}
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			c.logf("shutdown: %v", err)
		}
		return nil
	}
}

// workVerb executes benchmark cells for a distributed sweep coordinator
// (`partmb serve -distributed`, or any embedder of internal/remote's
// Coordinator). It registers over the schema-versioned wire protocol,
// heartbeats, long-polls for tasks, runs each cell through the registered
// cell kinds (every experiment family links into this binary, so every
// kind is served), and posts the cell's result JSON plus its measured
// host-ns cost back. The simulator is deterministic and cells are
// content-addressed, so a cell computed here is byte-identical to one
// computed locally; adding workers changes only wall-clock time.
//
//	partmb work -coordinator http://127.0.0.1:8080 -parallel 4
//
// SIGTERM/SIGINT finishes in-flight cells, deregisters, and exits.
func workVerb(fs *flag.FlagSet) func(*cli) error {
	coordinator := fs.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL")
	name := fs.String("name", "", "worker display name for journals/metrics/traces (default host-pid)")
	parallel := fs.Int("parallel", 1, "cells executed concurrently")
	heartbeat := fs.Duration("heartbeat", 2*time.Second, "liveness ping period (keep well under the coordinator's -worker-timeout)")
	pollWait := fs.Duration("poll-wait", 10*time.Second, "long-poll duration per task request")
	throttle := fs.Duration("throttle", 0, "artificial delay before each cell (testing aid)")
	return func(c *cli) error {
		if *name == "" {
			host, err := os.Hostname()
			if err != nil || host == "" {
				host = "worker"
			}
			*name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		if *parallel < 1 {
			return fmt.Errorf("-parallel %d, must be at least 1", *parallel)
		}
		w := remote.NewWorker(remote.WorkerConfig{
			Coordinator: strings.TrimRight(*coordinator, "/"),
			Name:        *name,
			Parallel:    *parallel,
			Heartbeat:   *heartbeat,
			PollWait:    *pollWait,
			Throttle:    *throttle,
			Logf:        log.New(c.stderr, "partmb work: ", 0).Printf,
		})
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
		defer stop()
		c.logf("%s serving %v for %s", *name, engine.Kinds(), *coordinator)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			return err
		}
		c.logf("%s executed %d cells", *name, w.Executed())
		return nil
	}
}
