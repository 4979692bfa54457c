package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"partmb/internal/core"
	"partmb/internal/engine"
	"partmb/internal/noise"
	"partmb/internal/platform"
	"partmb/internal/remote"
)

// fleet is a coordinator on a loopback listener with in-process workers.
type fleet struct {
	coord   *remote.Coordinator
	hs      *http.Server
	served  chan struct{}
	cancel  context.CancelFunc
	workers sync.WaitGroup
	// transport carries the workers' connections to the coordinator.
	transport *http.Transport
}

// startFleet boots the coordinator and n workers of parallelism 1 and waits
// until every worker is registered.
func startFleet(n int) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		coord:     remote.NewCoordinator(remote.CoordinatorConfig{}),
		served:    make(chan struct{}),
		transport: &http.Transport{},
	}
	f.hs = &http.Server{Handler: f.coord}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	var ws []*remote.Worker
	for i := 0; i < n; i++ {
		w := remote.NewWorker(remote.WorkerConfig{
			Coordinator: "http://" + ln.Addr().String(),
			Name:        fmt.Sprintf("w%d", i+1),
			Parallel:    1,
			Heartbeat:   500 * time.Millisecond,
			PollWait:    time.Second,
			Client:      &http.Client{Transport: f.transport},
		})
		ws = append(ws, w)
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			w.Run(ctx) // nil after a cancelled context
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range ws {
		for w.ID() == "" {
			if time.Now().After(deadline) {
				f.stop()
				return nil, fmt.Errorf("worker did not register within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return f, nil
}

// stop ends the workers, the listener and the coordinator's reaper and waits
// for their goroutines.
func (f *fleet) stop() {
	f.cancel()
	f.workers.Wait()
	f.coord.Close()
	f.hs.Close()
	<-f.served
	f.transport.CloseIdleConnections()
}

// The remote-2w input: 6 partition counts x 17 sizes x 8 noise seeds = 816
// core.Run cells.
var (
	remoteParts = []int{1, 2, 4, 8, 16, 32}
	remoteSizes = pow2Sizes(1<<10, 64<<20)
)

const remoteSeeds = 8

// remoteSweep runs the whole cell set through rn as 48 size sweeps and
// returns the results as JSON, which is how passes are compared.
func remoteSweep(rn *engine.Runner, sink *cellSink, seed int64, m *meter) ([]byte, error) {
	tr, parent, id := m.tr, m.root, m.id
	var all [][]*core.Result
	for s := 0; s < remoteSeeds; s++ {
		spec := platform.Niagara().WithNoise(noise.Uniform, 4).WithSeed(seed*100 + int64(s) + 1)
		for _, parts := range remoteParts {
			sp := tr.begin("core.sweep", parent, id)
			res, err := core.SweepMessageSizes(rn, core.Config{
				Partitions: parts,
				Iterations: 10,
				Warmup:     2,
				Platform:   spec,
			}, remoteSizes)
			tr.end(sp)
			tr.adopt(sink, sp, id)
			if err != nil {
				return nil, err
			}
			all = append(all, res)
		}
	}
	return json.Marshal(all)
}

// runRemote2w alternates distributed passes with local passes of the same
// sweep. wall_s is the distributed pass; the local median is a per-layer
// metric, and their difference per cell is the price of the wire.
func runRemote2w(rc *runCtx) (*outcome, error) {
	var fl *fleet
	var localWall []float64
	out, err := runBatch(rc, func() (passFunc, func(), error) {
		var err error
		if fl, err = startFleet(2); err != nil {
			return nil, nil, err
		}
		// Four sweeps over the wire open the workers' connections and let the
		// coordinator learn what a cell costs.
		warm := engine.New(engine.Workers(2), engine.WithExecutor(fl.coord))
		for _, parts := range remoteParts[:4] {
			if _, err := core.SweepMessageSizes(warm, core.Config{Partitions: parts, Iterations: 10, Warmup: 2,
				Platform: platform.Niagara().WithSeed(rc.seed)}, remoteSizes); err != nil {
				fl.stop()
				return nil, nil, err
			}
		}
		pass := func(m *meter) (res passResult, err error) {
			var local []byte
			runLocal := func() error {
				t0 := time.Now()
				var err error
				local, err = remoteSweep(engine.New(engine.Workers(2)), nil, rc.seed, &meter{root: -1, id: m.id})
				localWall = append(localWall, time.Since(t0).Seconds())
				return err
			}
			// Which of the two sweeps goes first is drawn from the seed, so
			// neither always runs on the heap the other left behind.
			localFirst := rc.rng(int64(m.id)).Intn(2) == 0
			if localFirst {
				if err := runLocal(); err != nil {
					return res, err
				}
			}
			var dist []byte
			err = m.measure(func() error {
				rn, sink := tracedRunner(m.tr, engine.Workers(2), engine.WithExecutor(fl.coord))
				var err error
				dist, err = remoteSweep(rn, sink, rc.seed, m)
				res.stats = rn.Stats()
				return err
			})
			if err != nil {
				return res, err
			}
			if !localFirst {
				if err := runLocal(); err != nil {
					return res, err
				}
			}
			if string(dist) != string(local) {
				return res, fmt.Errorf("distributed results differ from the local pass")
			}
			if st := res.stats; st.RemoteRuns != st.Runs || st.Runs == 0 {
				return res, fmt.Errorf("%d of %d runs were remote", st.RemoteRuns, st.Runs)
			}
			res.digest = digestOf(dist)
			return res, nil
		}
		return pass, fl.stop, nil
	})
	if err != nil {
		return nil, err
	}
	st := fl.coord.Status() // the last set-up's fleet: the one the passes ran on
	out.values["remote.stolen"] = float64(st.Stolen)
	out.values["remote.requeued"] = float64(st.Requeued)
	out.values["remote.failed"] = float64(st.Failed)
	least, most := int64(-1), int64(0)
	for _, w := range st.Workers {
		if least < 0 || w.Completed < least {
			least = w.Completed
		}
		if w.Completed > most {
			most = w.Completed
		}
	}
	if most > 0 {
		out.values["remote.balance"] = float64(least) / float64(most)
	}
	out.series["remote.local_wall_s"] = localWall
	if cells := median(out.series["engine.cells"]); cells > 0 && len(localWall) > 0 {
		out.values["remote.per_cell_overhead_us"] = (median(out.series["wall_s"]) - median(localWall)) / cells * 1e6
	}
	return out, nil
}
