package mpi

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

// runUnequal performs one native epoch with different partitionings on the
// two sides and returns the receive request.
func runUnequal(t *testing.T, sendParts int, sendBytes int64, recvParts int, recvBytes int64, sendBuf, recvBuf []byte) *PRequest {
	t.Helper()
	s, w := partWorld(t, PartNative, nil)
	var rpr *PRequest
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 5, sendParts, sendBytes)
		if sendBuf != nil {
			pr.BindSendBuffer(sendBuf)
		}
		c.Barrier(p)
		pr.Start(p)
		for i := 0; i < sendParts; i++ {
			p.Sleep(10 * sim.Microsecond)
			pr.Pready(p, i)
		}
		pr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		rpr = c.PrecvInit(p, 0, 5, recvParts, recvBytes)
		if recvBuf != nil {
			rpr.BindRecvBuffer(recvBuf)
		}
		c.Barrier(p)
		rpr.Start(p)
		rpr.Wait(p)
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rpr
}

func TestUnequalCountsFewSendersManyReceivers(t *testing.T) {
	// 4 send partitions of 1KiB feed 16 receive partitions of 256B.
	sendBuf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(sendBuf)
	recvBuf := make([]byte, 4096)
	rpr := runUnequal(t, 4, 1024, 16, 256, sendBuf, recvBuf)
	if !bytes.Equal(sendBuf, recvBuf) {
		t.Fatal("payload corrupted across repartitioning")
	}
	for i := 0; i < 16; i++ {
		if !rpr.arrived[i] {
			t.Fatalf("receive partition %d never completed", i)
		}
	}
	// Each sender partition covers 4 receive partitions, so arrivals come
	// in groups of four sharing a timestamp.
	times := rpr.arrivedTimes
	for g := 0; g < 4; g++ {
		for k := 1; k < 4; k++ {
			if times[4*g+k] != times[4*g] {
				t.Fatalf("receive partitions %d and %d fed by one sender differ: %v vs %v",
					4*g, 4*g+k, times[4*g+k], times[4*g])
			}
		}
	}
}

func TestUnequalCountsManySendersFewReceivers(t *testing.T) {
	// 16 send partitions of 256B feed 4 receive partitions of 1KiB: each
	// receive partition completes only when all four of its senders land.
	sendBuf := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(sendBuf)
	recvBuf := make([]byte, 4096)
	rpr := runUnequal(t, 16, 256, 4, 1024, sendBuf, recvBuf)
	if !bytes.Equal(sendBuf, recvBuf) {
		t.Fatal("payload corrupted across repartitioning")
	}
	// With senders readied in order every 10us, receive partition arrival
	// times must be strictly increasing across the 4 coarse partitions.
	times := rpr.arrivedTimes
	for j := 1; j < 4; j++ {
		if times[j] <= times[j-1] {
			t.Fatalf("coarse partition %d arrived at %v, not after %v", j, times[j], times[j-1])
		}
	}
}

func TestUnequalMisalignedBoundaries(t *testing.T) {
	// 3 send partitions of 2KiB feed 2 receive partitions of 3KiB: sender
	// partition 1 straddles both receive partitions.
	sendBuf := make([]byte, 6144)
	rand.New(rand.NewSource(3)).Read(sendBuf)
	recvBuf := make([]byte, 6144)
	runUnequal(t, 3, 2048, 2, 3072, sendBuf, recvBuf)
	if !bytes.Equal(sendBuf, recvBuf) {
		t.Fatal("payload corrupted across misaligned repartitioning")
	}
}

func TestUnequalTotalSizeMismatchPanics(t *testing.T) {
	s, w := partWorld(t, PartNative, nil)
	s.Spawn("r0", func(p *sim.Proc) {
		w.Comm(0).PsendInit(p, 1, 0, 4, 1024)
	})
	s.Spawn("r1", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		mustPanic(t, "partitioned init size mismatch", func() { w.Comm(1).PrecvInit(p, 0, 0, 4, 512) })
	})
	_ = s.Run()
}

func TestMPIPCLStillRequiresEqualCounts(t *testing.T) {
	// The layered library cannot repartition: a count mismatch leaves
	// internal transfers unmatched and the receiver deadlocks — the
	// documented MPIPCL restriction.
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 4, 1024)
		pr.Start(p)
		for i := 0; i < 4; i++ {
			pr.Pready(p, i)
		}
		pr.Wait(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 8, 512)
		pr.Start(p)
		pr.Wait(p)
	})
	err := s.Run()
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("expected deadlock from MPIPCL count mismatch, got %v", err)
	}
}

// Property: any factor pair partitioning of the same total transfers intact.
func TestQuickUnequalRepartition(t *testing.T) {
	f := func(sp, rp uint8, unit uint8, seed int64) bool {
		sendParts := int(sp%8) + 1
		recvParts := int(rp%8) + 1
		total := int64(sendParts*recvParts) * (int64(unit%64) + 1) * 16
		sendBuf := make([]byte, total)
		rand.New(rand.NewSource(seed)).Read(sendBuf)
		recvBuf := make([]byte, total)

		s := sim.New()
		cfg := DefaultConfig(2)
		cfg.PartImpl = PartNative
		w := NewWorld(s, cfg)
		s.Spawn("sender", func(p *sim.Proc) {
			c := w.Comm(0)
			pr := c.PsendInit(p, 1, 0, sendParts, total/int64(sendParts))
			pr.BindSendBuffer(sendBuf)
			c.Barrier(p)
			pr.Start(p)
			for i := 0; i < sendParts; i++ {
				pr.Pready(p, i)
			}
			pr.Wait(p)
			c.Barrier(p)
		})
		s.Spawn("recv", func(p *sim.Proc) {
			c := w.Comm(1)
			pr := c.PrecvInit(p, 0, 0, recvParts, total/int64(recvParts))
			pr.BindRecvBuffer(recvBuf)
			c.Barrier(p)
			pr.Start(p)
			pr.Wait(p)
			c.Barrier(p)
		})
		if err := s.Run(); err != nil {
			return false
		}
		return bytes.Equal(sendBuf, recvBuf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
