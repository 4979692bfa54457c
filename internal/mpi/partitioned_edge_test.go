package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"partmb/internal/sim"
)

func TestZeroBytePartitions(t *testing.T) {
	// Degenerate but legal: partitions carrying no payload still signal.
	for _, impl := range []PartImpl{PartMPIPCL, PartNative} {
		t.Run(impl.String(), func(t *testing.T) {
			spr, rpr := onePartEpoch(t, impl, 4, 0, nil, nil)
			if rpr.LastArriveAt() <= spr.FirstReadyAt() {
				t.Fatal("zero-byte partitions did not move signal")
			}
		})
	}
}

func TestOneBytePartitions(t *testing.T) {
	sendBuf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	recvBuf := make([]byte, 8)
	onePartEpoch(t, PartNative, 8, 1, sendBuf, recvBuf)
	if !bytes.Equal(sendBuf, recvBuf) {
		t.Fatalf("1-byte partitions corrupted: %v", recvBuf)
	}
}

func TestPartitionCountBounds(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		for want, f := range map[string]func(){
			"partition count 0 out of range":                              func() { c.PsendInit(p, 1, 0, 0, 64) },
			"partition count -1 out of range":                             func() { c.PsendInit(p, 1, 0, -1, 64) },
			fmt.Sprintf("partition count %d out of range", maxPartitions): func() { c.PsendInit(p, 1, 0, maxPartitions, 64) },
			"negative partition size":                                     func() { c.PsendInit(p, 1, 0, 4, -1) },
		} {
			mustPanic(t, want, f)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBindBufferLengthMismatchPanics(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("r0", func(p *sim.Proc) {
		c := w.Comm(0)
		spr := c.PsendInit(p, 1, 0, 4, 64)
		rpr := c.PrecvInit(p, 1, 1, 4, 64)
		for want, f := range map[string]func(){
			"send buffer length 100":            func() { spr.BindSendBuffer(make([]byte, 100)) },
			"recv buffer length 1000":           func() { rpr.BindRecvBuffer(make([]byte, 1000)) },
			"BindSendBuffer on receive request": func() { rpr.BindSendBuffer(make([]byte, 256)) },
			"BindRecvBuffer on send request":    func() { spr.BindRecvBuffer(make([]byte, 256)) },
		} {
			mustPanic(t, want, f)
		}
	})
	_ = s.Run() // native-less MPIPCL init has no pairing to drain
}

func TestTimestampAccessorMisuse(t *testing.T) {
	s, w := partWorld(t, PartMPIPCL, nil)
	s.Spawn("sender", func(p *sim.Proc) {
		c := w.Comm(0)
		pr := c.PsendInit(p, 1, 0, 2, 64)
		c.Barrier(p)
		pr.Start(p)
		mustPanic(t, "ReadyAt on un-readied partition", func() { pr.ReadyAt(0) })
		mustPanic(t, "FirstReadyAt with no partitions readied", func() { pr.FirstReadyAt() })
		pr.Pready(p, 0)
		pr.Pready(p, 1)
		pr.Wait(p)
		c.Barrier(p)
	})
	s.Spawn("recv", func(p *sim.Proc) {
		c := w.Comm(1)
		pr := c.PrecvInit(p, 0, 0, 2, 64)
		c.Barrier(p)
		pr.Start(p)
		// LastArriveAt before all partitions land must panic.
		mustPanic(t, "LastArriveAt before all partitions arrived", func() {
			if !pr.Parrived(p, 0) && !pr.Parrived(p, 1) {
				pr.LastArriveAt()
			} else {
				panic("already arrived; exercise the other branch")
			}
		})
		pr.Wait(p)
		if pr.LastArriveAt() <= 0 {
			t.Error("LastArriveAt after Wait invalid")
		}
		c.Barrier(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
