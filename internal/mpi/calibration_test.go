package mpi

import (
	"math"
	"testing"

	"partmb/internal/netsim"
	"partmb/internal/sim"
)

// Calibration tests: the simulated point-to-point behaviour must track the
// closed-form LogGP-style predictions of the cost model, so that figure
// shapes can be traced back to first principles.

// wireTime is the serialization time of size bytes on net's links.
func wireTime(net *netsim.Params, size int64) sim.Duration {
	return sim.Duration(float64(size) / net.Bandwidth * 1e9)
}

// pingLatency measures one pre-posted eager/rendezvous transfer of the
// given size.
func pingLatency(t *testing.T, size int64) sim.Duration {
	t.Helper()
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	var start, end sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Barrier(p)
		p.Sleep(10 * sim.Microsecond) // let the receiver pre-post
		start = p.Now()
		c.SendBytes(p, 1, 0, size)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		r := c.RecvInit(p, 0, 0)
		c.Barrier(p)
		r.Start(p)
		r.Wait(p)
		end = r.CompletedAt()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return end.Sub(start)
}

func TestCalibrationEagerLatency(t *testing.T) {
	// Pre-posted eager message: latency = call + o_send + size/B + L + o_recv
	// within one call overhead of slack.
	cfg := DefaultConfig(2)
	net := cfg.Net
	for _, size := range []int64{1, 1 << 10, 8 << 10} {
		got := pingLatency(t, size)
		want := cfg.CallOverhead + net.SendOverhead + wireTime(net, size) +
			net.Latency + net.RecvOverhead
		slack := 2 * cfg.CallOverhead
		if got < want || got > want+slack+net.RecvOverhead {
			t.Errorf("size %d: latency %v, want %v (+%v slack)", size, got, want, slack)
		}
	}
}

func TestCalibrationRendezvousLatency(t *testing.T) {
	// Pre-posted rendezvous: adds one round trip (RTS out, CTS back) plus
	// the rendezvous setup before the payload flows.
	cfg := DefaultConfig(2)
	net := cfg.Net
	size := int64(1 << 20)
	got := pingLatency(t, size)
	rts := net.SendOverhead + net.Latency + net.RecvOverhead
	cts := net.SendOverhead + net.Latency + net.RecvOverhead
	data := net.RendezvousSetup + net.SendOverhead + wireTime(net, size) + net.Latency + net.RecvOverhead
	want := cfg.CallOverhead + rts + cts + data
	tol := 5 * cfg.CallOverhead
	if got < want-tol || got > want+tol {
		t.Errorf("rendezvous latency %v, want about %v", got, want)
	}
}

func TestCalibrationStreamingBandwidth(t *testing.T) {
	// Back-to-back large sends must sustain the configured link bandwidth:
	// n transfers of m bytes complete in about n*m/B.
	s := sim.New()
	cfg := DefaultConfig(2)
	w := NewWorld(s, cfg)
	const n = 16
	size := int64(8 << 20)
	var start, end sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Barrier(p)
		start = p.Now()
		var reqs []*Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, c.IsendBytes(p, 1, i, size))
		}
		WaitAll(p, reqs...)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		var reqs []*Request
		for i := 0; i < n; i++ {
			reqs = append(reqs, c.Irecv(p, 0, i))
		}
		c.Barrier(p)
		WaitAll(p, reqs...)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	elapsed := end.Sub(start)
	gbps := float64(n*size) / elapsed.Seconds()
	if math.Abs(gbps-cfg.Net.Bandwidth)/cfg.Net.Bandwidth > 0.05 {
		t.Fatalf("sustained bandwidth %.3g B/s, want within 5%% of %.3g", gbps, cfg.Net.Bandwidth)
	}
}

func TestCalibrationMessageRate(t *testing.T) {
	// Tiny-message injection rate is bounded by the per-message send
	// overhead: n sends take about n*o_send of NIC occupancy.
	s := sim.New()
	cfg := DefaultConfig(2)
	w := NewWorld(s, cfg)
	const n = 200
	var start, txIdle sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		start = p.Now()
		var last *Request
		for i := 0; i < n; i++ {
			last = c.IsendBytes(p, 1, i, 0)
		}
		// NIC occupancy, not proc time, bounds the rate. An eager send
		// completes when the NIC finishes injecting it, so the last one
		// completes when the NIC goes idle.
		last.Wait(p)
		txIdle = last.CompletedAt()
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		for i := 0; i < n; i++ {
			c.Recv(p, 0, i)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	occupancy := txIdle.Sub(start)
	want := sim.Duration(n) * cfg.Net.SendOverhead
	if occupancy < want {
		t.Fatalf("NIC occupancy %v below the overhead floor %v", occupancy, want)
	}
	if occupancy > want*2 {
		t.Fatalf("NIC occupancy %v far above the overhead floor %v", occupancy, want)
	}
}

func TestTopologyAffectsLatency(t *testing.T) {
	// With a Dragonfly+ topology of 2-rank wings, rank 0 -> 1 stays inside
	// a wing while 0 -> 2 crosses wings and must take longer.
	measure := func(dst int) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(4)
		cfg.Topology = netsim.NewDragonflyPlus(2, cfg.Net.Latency, cfg.Net.Latency+5*sim.Microsecond)
		w := NewWorld(s, cfg)
		var start, end sim.Time
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			c.Barrier(p)
			p.Sleep(10 * sim.Microsecond)
			start = p.Now()
			c.SendBytes(p, dst, 0, 1024)
		})
		for r := 1; r < 4; r++ {
			r := r
			s.Spawn("peer", func(p *sim.Proc) {
				c := w.Comm(r)
				var req *Request
				req = c.RecvInit(p, 0, 0)
				c.Barrier(p)
				if r == dst {
					req.Start(p)
					req.Wait(p)
					end = req.CompletedAt()
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return end.Sub(start)
	}
	intra := measure(1)
	inter := measure(2)
	if inter-intra != 5*sim.Microsecond {
		t.Fatalf("inter-wing delta = %v, want 5us (intra=%v inter=%v)", inter-intra, intra, inter)
	}
}
