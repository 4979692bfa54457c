package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/sim"
)

// Request.Free: a completed nonblocking request goes back to its rank's free
// list, and every misuse of one before the rank's next call panics.

// mustPanic fails the test unless f panics with a message naming want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if v := recover(); !strings.Contains(fmt.Sprint(v), want) {
			t.Errorf("panicked with %v, want a panic about %q", v, want)
		}
	}()
	f()
}

func TestFreeMisusePanics(t *testing.T) {
	const rdv = 1 << 20 // rendezvous: the send is still in flight after Isend
	for name, misuse := range map[string]func(t *testing.T, c *Comm, p *sim.Proc){
		"Free before completion": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.IsendBytes(p, 1, 0, rdv)
			mustPanic(t, "incomplete", r.free)
			r.Wait(p)
			r.free()
		},
		"Free of a persistent request": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.SendInitBytes(p, 1, 0, 8)
			r.Start(p)
			r.Wait(p)
			mustPanic(t, "persistent", r.free)
		},
		"Free of an MPIPCL inner request": func(t *testing.T, c *Comm, p *sim.Proc) {
			pr := c.PsendInit(p, 1, 0, 2, 8)
			pr.Start(p)
			pr.preadyRange(p, 0, 2)
			pr.Wait(p)
			mustPanic(t, "inner request", pr.inner[0].free)
		},
		"Free twice": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.IsendBytes(p, 1, 0, 8)
			r.Wait(p)
			r.free()
			mustPanic(t, "Free of a freed request", r.free)
		},
		"Wait on a freed request": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.IsendBytes(p, 1, 0, 8)
			r.Wait(p)
			r.free()
			mustPanic(t, "Wait on a freed request", func() { r.Wait(p) })
		},
		"Test on a freed request": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.IsendBytes(p, 1, 0, 8)
			r.Wait(p)
			r.free()
			mustPanic(t, "Test on a freed request", func() { r.test(p) })
		},
		"completion of a freed request": func(t *testing.T, c *Comm, p *sim.Proc) {
			r := c.IsendBytes(p, 1, 0, 8)
			r.Wait(p)
			r.free()
			r.comm = c // so that only the pooled mark can stop it
			mustPanic(t, "free list", func() { r.completeAt(p.Now()) })
			mustPanic(t, "free list", func() { r.Fire(0) })
			r.comm = nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			runWorld(t, 2, func(cfg *Config) { cfg.PartImpl = PartMPIPCL }, func(c *Comm, p *sim.Proc) {
				if c.Rank() == 0 {
					misuse(t, c, p)
					return
				}
				if name == "Free of an MPIPCL inner request" {
					pr := c.PrecvInit(p, 0, 0, 2, 8)
					pr.Start(p)
					pr.Wait(p)
					return
				}
				c.Recv(p, 0, 0)
			})
		})
	}
}

// Every thread of four ranks under MPI_THREAD_MULTIPLE exchanges eager and
// rendezvous messages with its twin on the partner rank, freeing both
// requests after each exchange, so every Isend and Irecv after the first
// reuses a freed request. The simulation is the one fresh requests produced:
// the end times are literals recorded on the commit before Free existed,
// running the same program without the Free calls.
func TestFreedRequestsServeTheNextCall(t *testing.T) {
	const (
		ranks   = 4
		threads = 4
		msgs    = 1000 // per rank
	)
	var ends [ranks]sim.Time
	seen := make([]map[*Request]bool, ranks)
	w := runWorld(t, ranks, func(cfg *Config) { cfg.ThreadMode = Multiple }, func(c *Comm, p *sim.Proc) {
		c.SetPlacement(cluster.Place(c.world.cfg.Machine, threads))
		s := p.Scheduler()
		me, peer := c.Rank(), c.Rank()^1
		seen[me] = map[*Request]bool{}
		var wg sim.WaitGroup
		wg.Add(s, threads)
		for th := 0; th < threads; th++ {
			ep := c.Endpoint(th)
			s.Spawn("thread", func(p *sim.Proc) {
				defer wg.Done(s)
				for i := 0; i < msgs/threads; i++ {
					size := int64(1024)
					if (i+th)%2 == 1 {
						size = 256 << 10
					}
					var rr, sr *Request
					payload := bytes.Repeat([]byte{byte(i)}, int(size))
					if th == 0 { // main-thread calls carrying a payload
						rr = c.Irecv(p, peer, th)
						sr = c.isendData(p, peer, th, ctxP2P, payload)
					} else {
						rr = ep.Irecv(p, peer, th)
						sr = ep.IsendBytes(p, peer, th, size)
					}
					WaitAll(p, rr, sr)
					if rr.size != size || th == 0 && !bytes.Equal(rr.data, payload) {
						t.Errorf("rank %d thread %d message %d: %d bytes received, want %d intact", me, th, i, rr.size, size)
					}
					seen[me][rr], seen[me][sr] = true, true
					FreeAll(rr, sr)
				}
			})
		}
		wg.Wait(p)
		ends[me] = p.Now()
	})
	if want := [ranks]sim.Time{12066530, 12066530, 12066530, 12066530}; ends != want {
		t.Errorf("ranks end at %v, want %v", ends, want)
	}
	for i, st := range w.ranks {
		// Each thread holds two requests at once.
		if n, m := len(st.freeReqs), len(seen[i]); n != m || m > 2*threads {
			t.Errorf("rank %d: %d requests on its free list and %d used for %d messages, want equal and at most %d", i, n, m, msgs, 2*threads)
		}
	}
}
