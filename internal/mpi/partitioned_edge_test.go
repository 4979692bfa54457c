package mpi

import (
	"bytes"
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
		for name, f := range map[string]func(){
			"zero parts":     func() { c.PsendInit(p, 1, 0, 0, 64) },
			"negative parts": func() { c.PsendInit(p, 1, 0, -1, 64) },
			"too many parts": func() { c.PsendInit(p, 1, 0, maxPartitions, 64) },
			"negative bytes": func() { c.PsendInit(p, 1, 0, 4, -1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				f()
			}()
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
		for name, f := range map[string]func(){
			"short send buffer": func() { spr.BindSendBuffer(make([]byte, 100)) },
			"long recv buffer":  func() { rpr.BindRecvBuffer(make([]byte, 1000)) },
			"send bind on recv": func() { rpr.BindSendBuffer(make([]byte, 256)) },
			"recv bind on send": func() { spr.BindRecvBuffer(make([]byte, 256)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				f()
			}()
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
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		mustPanic("ReadyAt before Pready", func() { pr.ReadyAt(0) })
		mustPanic("FirstReadyAt with none readied", func() { pr.FirstReadyAt() })
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
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}
		// LastArriveAt before all partitions land must panic.
		mustPanic("LastArriveAt too early", func() {
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
