package mpi

import (
	"fmt"
	"testing"

	"partmb/internal/cluster"
	"partmb/internal/sim"
)

// elapsedConcurrentSends measures 8 threads each sending one message under
// the given threading mode.
func elapsedConcurrentSends(t *testing.T, mode ThreadMode) sim.Duration {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(2)
	cfg.ThreadMode = mode
	w := NewWorld(s, cfg)
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.SetPlacement(cluster.Place(cfg.Machine, 8))
	var last sim.Time
	var wg sim.WaitGroup
	wg.Add(s, 8)
	for th := 0; th < 8; th++ {
		th := th
		s.Spawn(fmt.Sprintf("t%d", th), func(p *sim.Proc) {
			if mode == Serialized {
				// The application guarantees serialization: stagger calls.
				p.Sleep(sim.Duration(th) * 10 * sim.Microsecond)
			}
			c0.Endpoint(th).IsendBytes(p, 1, th, 256).Wait(p)
			if p.Now() > last {
				last = p.Now()
			}
			wg.Done(s)
		})
	}
	s.Spawn("recv", func(p *sim.Proc) {
		var reqs []*Request
		for th := 0; th < 8; th++ {
			reqs = append(reqs, c1.Irecv(p, 0, th))
		}
		WaitAll(p, reqs...)
	})
	s.Spawn("join", func(p *sim.Proc) { wg.Wait(p) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return sim.Duration(last)
}

func TestSerializedPaysNoLock(t *testing.T) {
	// Serialized mode with application-staggered calls must not pay lock
	// contention: the library trusts the application's guarantee.
	serialized := elapsedConcurrentSends(t, Serialized)
	multiple := elapsedConcurrentSends(t, Multiple)
	// The serialized run includes 70us of deliberate stagger; subtract it.
	effective := serialized - 70*sim.Microsecond
	if effective >= multiple {
		t.Fatalf("serialized effective time %v not below multiple %v", effective, multiple)
	}
}

func TestThreadModeStrings(t *testing.T) {
	cases := map[ThreadMode]string{
		Funneled:   "MPI_THREAD_FUNNELED",
		Serialized: "MPI_THREAD_SERIALIZED",
		Multiple:   "MPI_THREAD_MULTIPLE",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if ThreadMode(9).String() == "" || PartImpl(9).String() == "" {
		t.Error("unknown enums should still print")
	}
}

func TestEndpointBoundsPanic(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		if c.Rank() != 0 {
			return
		}
		// The default placement has one thread.
		mustPanic(t, "thread 1 out of range", func() { c.Endpoint(1) })
		mustPanic(t, "thread -1 out of range", func() { c.Endpoint(-1) })
	})
}

func TestWaitAllSkipsNil(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			r := c.IsendBytes(p, 1, 0, 8)
			WaitAll(p, nil, r, nil)
		case 1:
			c.Recv(p, 0, 0)
		}
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.Net = nil },
		func(c *Config) { c.Machine = nil },
		func(c *Config) { c.Mem = nil },
		func(c *Config) { c.CallOverhead = -1 },
		func(c *Config) { c.MatchPerElement = -1 },
		func(c *Config) { c.LockBase = -1 },
		func(c *Config) { c.LockContention = -1 },
		func(c *Config) { c.NativePreadyCost = -1 },
		func(c *Config) { c.NativeRxOverhead = -1 },
		func(c *Config) { c.CopyBandwidth = 0 },
		func(c *Config) { c.PcclPartitionSetup = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(2)
		mutate(&cfg)
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d passed Validate", i)
		}
	}
	// Zero costs are free, not invalid.
	cfg := DefaultConfig(2)
	cfg.CallOverhead, cfg.MatchPerElement, cfg.LockBase, cfg.LockContention = 0, 0, 0, 0
	cfg.PcclPartitionSetup, cfg.NativePreadyCost, cfg.NativeRxOverhead = 0, 0, 0
	if err := cfg.validate(); err != nil {
		t.Errorf("zero costs rejected: %v", err)
	}
}

// TestDefaultNativeCosts pins the native implementation's two costs in
// DefaultConfig; only goldens in other packages read them otherwise.
func TestDefaultNativeCosts(t *testing.T) {
	cfg := DefaultConfig(2)
	if cfg.NativePreadyCost != 120*sim.Nanosecond || cfg.NativeRxOverhead != 80*sim.Nanosecond {
		t.Errorf("native Pready %v, rx overhead %v; pinned at 120ns, 80ns", cfg.NativePreadyCost, cfg.NativeRxOverhead)
	}
}

func TestNewWorldPanicsOnInvalid(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.CallOverhead = -1
	mustPanic(t, "negative cost parameter", func() { NewWorld(sim.New(), cfg) })
}

func TestCommCaching(t *testing.T) {
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	if w.Comm(0) != w.Comm(0) {
		t.Fatal("Comm handles not cached")
	}
	if w.Comm(0) == w.Comm(1) {
		t.Fatal("distinct ranks share a handle")
	}
}

func TestRequestString(t *testing.T) {
	runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		switch c.Rank() {
		case 0:
			r := c.IsendBytes(p, 1, 3, 64)
			if r.String() == "" || r.size != 64 || r.kind != sendReq {
				t.Errorf("send request accessors wrong: %v", r)
			}
			r.Wait(p)
		case 1:
			c.Recv(p, 0, 3)
		}
	})
}

func TestNICStatsExposed(t *testing.T) {
	w := runWorld(t, 2, nil, func(c *Comm, p *sim.Proc) {
		if c.Rank() == 0 {
			c.SendBytes(p, 1, 0, 4096)
		} else {
			c.Recv(p, 0, 0)
		}
	})
	if st := w.Comm(0).NICStats(); st.Bytes != 4096 {
		t.Fatalf("sender NIC bytes = %d, want 4096", st.Bytes)
	}
}
