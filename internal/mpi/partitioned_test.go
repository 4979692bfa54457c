package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partmb/internal/cluster"
	"partmb/internal/sim"
)

// partWorld builds a 2-rank world with the given partitioned implementation.
func partWorld(t *testing.T, impl PartImpl, tweak func(*Config)) (*sim.Scheduler, *World) {
	t.Helper()
	s := sim.New()
	cfg := DefaultConfig(2)
	cfg.PartImpl = impl
	if tweak != nil {
		tweak(&cfg)
	}
	return s, NewWorld(s, cfg)
}

// onePartEpoch runs a single partitioned epoch between two ranks: the sender
// readies every partition (after optional per-partition compute), both sides
// Wait. It returns the send- and receive-side requests for inspection.
func onePartEpoch(t *testing.T, impl PartImpl, parts int, partBytes int64, sendBuf, recvBuf []byte) (*PRequest, *PRequest) {
	t.Helper()
	s, w := partWorld(t, impl, nil)
	var spr, rpr *PRequest
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.SetPlacement(cluster.Place(w.cfg.Machine, parts))
		spr = c.PsendInit(p, 1, 42, parts, partBytes)
		if sendBuf != nil {
			spr.BindSendBuffer(sendBuf)
		}
		c.Barrier(p)
		spr.Start(p)
		for i := 0; i < parts; i++ {
			spr.Pready(p, i)
		}
		spr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		rpr = c.PrecvInit(p, 0, 42, parts, partBytes)
		if recvBuf != nil {
			rpr.BindRecvBuffer(recvBuf)
		}
		c.Barrier(p)
		rpr.Start(p)
		rpr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatalf("%v: %v", impl, err)
	}
	return spr, rpr
}

// Payloads bound to partitioned requests arrive intact on every path a
// partition can take: 1 KiB and 64 KiB partitions, either side of the
// 16 KiB eager threshold (MPIPCL sends the larger ones by rendezvous),
// received pre-posted or — when the sender readies every partition before
// the receiver starts its epoch — out of the unexpected queue (MPIPCL) or
// the pending-arrival buffer (native).
func TestPartitionedPayloadIntegrity(t *testing.T) {
	const parts = 8
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			for _, tc := range []struct {
				name      string
				partBytes int64
				late      bool // the receiver starts after every Pready
			}{
				{"1KiB", 1 << 10, false},
				{"64KiB", 64 << 10, false},
				{"1KiB-late-receiver", 1 << 10, true},
				{"64KiB-late-receiver", 64 << 10, true},
			} {
				t.Run(tc.name, func(t *testing.T) {
					sendBuf := make([]byte, parts*tc.partBytes)
					rand.New(rand.NewSource(7)).Read(sendBuf)
					recvBuf := make([]byte, len(sendBuf))
					s, w := partWorld(t, impl, nil)
					var readied sim.Time
					s.Spawn("sender", func(p *sim.Proc) {
						c := w.Comm(0)
						pr := c.PsendInit(p, 1, 42, parts, tc.partBytes)
						pr.BindSendBuffer(sendBuf)
						c.Barrier(p)
						pr.Start(p)
						pr.preadyRange(p, 0, parts)
						readied = p.Now()
						pr.Wait(p)
					})
					s.Spawn("recv", func(p *sim.Proc) {
						c := w.Comm(1)
						pr := c.PrecvInit(p, 0, 42, parts, tc.partBytes)
						pr.BindRecvBuffer(recvBuf)
						c.Barrier(p)
						if tc.late {
							p.Sleep(sim.Millisecond)
							if readied == 0 || readied > p.Now() {
								t.Errorf("receiver starts at %v, before the sender readied every partition (%v)", p.Now(), readied)
							}
						}
						pr.Start(p)
						pr.Wait(p)
					})
					if err := s.Run(); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sendBuf, recvBuf) {
						t.Fatal("partitioned payload corrupted")
					}
				})
			}
		})
	}
}

func TestPartitionedTimestampsSane(t *testing.T) {
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			spr, rpr := onePartEpoch(t, impl, 4, 4096, nil, nil)
			first := spr.FirstReadyAt()
			last := rpr.LastArriveAt()
			if last <= first {
				t.Fatalf("last arrival %v not after first ready %v", last, first)
			}
			for i := 0; i < 4; i++ {
				if rpr.ArrivedAt(i) <= spr.ReadyAt(i) {
					t.Fatalf("partition %d arrived %v before readied %v", i, rpr.ArrivedAt(i), spr.ReadyAt(i))
				}
			}
		})
	}
}

func TestPartitionedEpochRestart(t *testing.T) {
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			const epochs = 4
			s, w := partWorld(t, impl, nil)
			var lastArrivals []sim.Time
			s.Spawn("sender", func(p *sim.Proc) {
				c := w.Comm(0)
				pr := c.PsendInit(p, 1, 0, 4, 512)
				c.Barrier(p)
				for e := 0; e < epochs; e++ {
					pr.Start(p)
					for i := 0; i < 4; i++ {
						p.Sleep(sim.Microsecond) // pretend compute
						pr.Pready(p, i)
					}
					pr.Wait(p)
				}
				c.Barrier(p)
			})
			s.Spawn("recv", func(p *sim.Proc) {
				c := w.Comm(1)
				pr := c.PrecvInit(p, 0, 0, 4, 512)
				c.Barrier(p)
				for e := 0; e < epochs; e++ {
					pr.Start(p)
					pr.Wait(p)
					lastArrivals = append(lastArrivals, pr.LastArriveAt())
					if pr.epoch != e+1 {
						t.Errorf("epoch counter = %d, want %d", pr.epoch, e+1)
					}
				}
				c.Barrier(p)
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if len(lastArrivals) != epochs {
				t.Fatalf("completed %d epochs, want %d", len(lastArrivals), epochs)
			}
			for e := 1; e < epochs; e++ {
				if lastArrivals[e] <= lastArrivals[e-1] {
					t.Fatalf("epoch %d arrivals not after epoch %d", e, e-1)
				}
			}
		})
	}
}

func TestParrivedPerPartition(t *testing.T) {
	// Ready partitions with large gaps; Parrived must flip per partition as
	// data lands, not all at once.
	s, w := partWorld(t, PartMPIPCL, nil)
	const parts = 4
	gap := 100 * sim.Microsecond
	arrivedAtCheck := make([]int, parts+1) // count arrived at each checkpoint
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, parts, 256)
		c.Barrier(p)
		pr.Start(p)
		for i := 0; i < parts; i++ {
			pr.Pready(p, i)
			p.Sleep(gap)
		}
		pr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, parts, 256)
		c.Barrier(p)
		pr.Start(p)
		for check := 0; check <= parts; check++ {
			n := 0
			for i := 0; i < parts; i++ {
				if pr.Parrived(p, i) {
					n++
				}
			}
			arrivedAtCheck[check] = n
			if check < parts {
				p.Sleep(gap)
			}
		}
		pr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for c := 1; c <= parts; c++ {
		if arrivedAtCheck[c] < arrivedAtCheck[c-1] {
			t.Fatalf("arrived count regressed: %v", arrivedAtCheck)
		}
	}
	if arrivedAtCheck[0] == parts {
		t.Fatalf("all partitions arrived instantly: %v", arrivedAtCheck)
	}
	if arrivedAtCheck[parts] != parts {
		t.Fatalf("not all partitions arrived by the end: %v", arrivedAtCheck)
	}
}

func TestOnePartitionBehavesLikePt2Pt(t *testing.T) {
	// The paper's sanity condition: with one partition, t_part should be
	// close to a plain persistent send of the same size (within the layered
	// library's per-partition surcharge).
	size := int64(64 << 10)

	// Partitioned, 1 partition.
	spr, rpr := onePartEpoch(t, PartMPIPCL, 1, size, nil, nil)
	tPart := rpr.LastArriveAt().Sub(spr.FirstReadyAt())

	// Plain pt2pt of the same total size.
	s := sim.New()
	w := NewWorld(s, DefaultConfig(2))
	var start, end sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		c.Barrier(p)
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
	tP2P := end.Sub(start)
	ratio := float64(tPart) / float64(tP2P)
	if ratio < 0.9 || ratio > 2.0 {
		t.Fatalf("1-partition overhead ratio = %.2f (t_part=%v t_pt2pt=%v), want ~[1,2]", ratio, tPart, tP2P)
	}
}

func TestNativeFasterThanMPIPCLManyPartitions(t *testing.T) {
	// The future-work comparison: for many small partitions the native
	// implementation must beat the layered one.
	span := func(impl PartImpl) sim.Duration {
		spr, rpr := onePartEpoch(t, impl, 16, 256, nil, nil)
		return rpr.LastArriveAt().Sub(spr.FirstReadyAt())
	}
	pccl := span(PartMPIPCL)
	native := span(PartNative)
	if native >= pccl {
		t.Fatalf("native (%v) not faster than MPIPCL (%v) for 16x256B", native, pccl)
	}
}

func TestPartitionedMisusePanics(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 2, 64)

		mustPanic(t, "Pready before Start", func() { pr.Pready(p, 0) })
		mustPanic(t, "Wait on inactive partitioned request", func() { pr.Wait(p) })
		pr.Start(p)
		mustPanic(t, "Start on active partitioned request", func() { pr.Start(p) })
		pr.Pready(p, 0)
		mustPanic(t, "partition 0 readied twice", func() { pr.Pready(p, 0) })
		mustPanic(t, "partition 2 out of range", func() { pr.Pready(p, 2) })
		mustPanic(t, "Parrived on send request", func() { pr.Parrived(p, 0) })
		pr.Pready(p, 1)
		pr.Wait(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 2, 64)
		pr.Start(p)
		pr.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// preadyRange marks partitions [lo, hi) ready, lowest first, the analogue
// of MPI_Pready_range with an exclusive upper bound.
func (pr *PRequest) preadyRange(p *sim.Proc, lo, hi int) {
	for i := lo; i < hi; i++ {
		pr.Pready(p, i)
	}
}

// preadyList marks the listed partitions ready in order, the analogue of
// MPI_Pready_list.
func (pr *PRequest) preadyList(p *sim.Proc, parts []int) {
	for _, i := range parts {
		pr.Pready(p, i)
	}
}

func TestPreadyRangeAndList(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 8, 64)
		c.Barrier(p)
		pr.Start(p)
		pr.preadyRange(p, 0, 4)
		pr.preadyList(p, []int{6, 4, 7, 5})
		pr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 8, 64)
		c.Barrier(p)
		pr.Start(p)
		pr.Wait(p)
		for i := 0; i < 8; i++ {
			if !pr.arrived[i] {
				t.Errorf("partition %d never arrived", i)
			}
		}
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNativeInitMismatchPanics(t *testing.T) {
	s, w := partWorld(t, PartNative, nil)
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		c.PsendInit(p, 1, 0, 4, 64)
	})
	s.Spawn("r1", func(p *sim.Proc) {
		c := w.Comm(1)
		p.Sleep(sim.Microsecond) // ensure the sender registered first
		mustPanic(t, "partitioned init size mismatch", func() { c.PrecvInit(p, 0, 0, 8, 64) })
	})
	_ = s.Run() // the panic may leave the sender parked; ignore run error
}

func TestNativeStartUnboundPanics(t *testing.T) {
	s, w := partWorld(t, PartNative, nil)
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 4, 64)
		mustPanic(t, "before the peer initialized", func() { pr.Start(p) })
	})
	_ = s.Run()
}

// test charges one call overhead and reports whether the epoch has
// completed, deactivating the request when it has: MPI_Test on a
// partitioned request, which the runtime leaves out because its callers
// only wait.
func (pr *PRequest) test(p *sim.Proc) bool {
	pr.comm.enter(p, 0).done()
	if pr.allDone.Done() {
		pr.active = false
		return true
	}
	return false
}

func TestPartitionedTestDeactivates(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 2, 128)
		c.Barrier(p)
		pr.Start(p)
		pr.Pready(p, 0)
		pr.Pready(p, 1)
		for !pr.test(p) {
			p.Sleep(sim.Microsecond)
		}
		if pr.active {
			t.Error("request still active after successful Test")
		}
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 2, 128)
		c.Barrier(p)
		pr.Start(p)
		pr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMorePartitionsMoreOverheadSmallMessages(t *testing.T) {
	// Core paper shape: for a fixed small total size, cutting it into more
	// partitions costs more end-to-end (per-message overheads dominate).
	total := int64(16 << 10)
	span := func(parts int) sim.Duration {
		spr, rpr := onePartEpoch(t, PartMPIPCL, parts, total/int64(parts), nil, nil)
		return rpr.LastArriveAt().Sub(spr.FirstReadyAt())
	}
	t1, t8, t32 := span(1), span(8), span(32)
	if !(t1 < t8 && t8 < t32) {
		t.Fatalf("overhead not increasing: 1p=%v 8p=%v 32p=%v", t1, t8, t32)
	}
}

func TestSocketSpilloverStepAt32Partitions(t *testing.T) {
	// Partitions 21..32 ready from socket 1 and pay the cross-socket
	// penalty; removing the penalty must shrink the 32-partition span.
	total := int64(32 << 10)
	span := func(tweak func(*Config)) sim.Duration {
		s, w := partWorld(t, PartMPIPCL, tweak)
		var spr, rpr *PRequest
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			c.SetPlacement(cluster.Place(w.cfg.Machine, 32))
			spr = c.PsendInit(p, 1, 0, 32, total/32)
			c.Barrier(p)
			spr.Start(p)
			for i := 0; i < 32; i++ {
				spr.Pready(p, i)
			}
			spr.Wait(p)
			c.Barrier(p)
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			rpr = c.PrecvInit(p, 0, 0, 32, total/32)
			c.Barrier(p)
			rpr.Start(p)
			rpr.Wait(p)
			c.Barrier(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return rpr.LastArriveAt().Sub(spr.FirstReadyAt())
	}
	withPenalty := span(nil)
	withoutPenalty := span(func(cfg *Config) {
		m := *cfg.Machine
		m.CrossSocketPenalty = 0
		cfg.Machine = &m
	})
	if withPenalty <= withoutPenalty {
		t.Fatalf("cross-socket penalty had no effect: with=%v without=%v", withPenalty, withoutPenalty)
	}
}

// Property: for any partition count and size, every partition arrives
// exactly once, after its Pready, under both implementations.
func TestQuickPartitionedDelivery(t *testing.T) {
	f := func(rawParts uint8, rawSize uint16, implRaw bool, seed int64) bool {
		parts := int(rawParts%32) + 1
		partBytes := int64(rawSize%8192) + 1
		impl := PartMPIPCL
		if implRaw {
			impl = PartNative
		}
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		cfg := DefaultConfig(2)
		cfg.PartImpl = impl
		w := NewWorld(s, cfg)
		var spr, rpr *PRequest
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			spr = c.PsendInit(p, 1, 3, parts, partBytes)
			c.Barrier(p)
			spr.Start(p)
			for _, i := range rng.Perm(parts) {
				p.Sleep(sim.Duration(rng.Intn(5000)))
				spr.Pready(p, i)
			}
			spr.Wait(p)
			c.Barrier(p)
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			rpr = c.PrecvInit(p, 0, 3, parts, partBytes)
			c.Barrier(p)
			rpr.Start(p)
			rpr.Wait(p)
			c.Barrier(p)
		})
		if err := s.Run(); err != nil {
			return false
		}
		for i := 0; i < parts; i++ {
			if rpr.ArrivedAt(i) <= spr.ReadyAt(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionedUnderThreadMultiple(t *testing.T) {
	// Threads readying partitions concurrently under MPI_THREAD_MULTIPLE:
	// with MPIPCL every Pready contends for the lock; with native none do.
	span := func(impl PartImpl) sim.Duration {
		s := sim.New()
		cfg := DefaultConfig(2)
		cfg.ThreadMode = Multiple
		cfg.PartImpl = impl
		w := NewWorld(s, cfg)
		const parts = 8
		var spr, rpr *PRequest
		ready := sim.NewBarrier(parts + 1)
		done := sim.NewBarrier(parts + 1)
		s.Spawn("sender-main", func(p *sim.Proc) {
			c := w.Comm(0)
			c.SetPlacement(cluster.Place(w.cfg.Machine, parts))
			spr = c.PsendInit(p, 1, 0, parts, 512)
			c.Barrier(p)
			for th := 0; th < parts; th++ {
				th := th
				s.Spawn(fmt.Sprintf("worker%d", th), func(tp *sim.Proc) {
					ready.Await(tp)
					spr.Pready(tp, th)
					done.Await(tp)
				})
			}
			spr.Start(p)
			ready.Await(p)
			done.Await(p)
			spr.Wait(p)
			c.Barrier(p)
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			rpr = c.PrecvInit(p, 0, 0, parts, 512)
			c.Barrier(p)
			rpr.Start(p)
			rpr.Wait(p)
			c.Barrier(p)
		})
		if err := s.Run(); err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		return rpr.LastArriveAt().Sub(spr.FirstReadyAt())
	}
	pccl := span(PartMPIPCL)
	native := span(PartNative)
	if native >= pccl {
		t.Fatalf("native under MULTIPLE (%v) not faster than MPIPCL (%v)", native, pccl)
	}
}
