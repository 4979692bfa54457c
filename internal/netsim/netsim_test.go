package netsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

// TestEDRValidates also pins the preset field by field: goldens in other
// packages read it, but a wrong constant would otherwise pass this package.
func TestEDRValidates(t *testing.T) {
	if err := EDR().Validate(); err != nil {
		t.Fatal(err)
	}
	want := Params{Latency: 900 * sim.Nanosecond, Bandwidth: 12e9, SendOverhead: 500 * sim.Nanosecond,
		RecvOverhead: 300 * sim.Nanosecond, EagerThreshold: 16 << 10, RendezvousSetup: 400 * sim.Nanosecond}
	if got := *EDR(); got != want {
		t.Errorf("EDR() = %+v, pinned at %+v", got, want)
	}
	// Zero costs are free, not invalid.
	if err := (&Params{Bandwidth: 1}).Validate(); err != nil {
		t.Fatalf("zero costs rejected: %v", err)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.Latency = -1 },
		func(p *Params) { p.Bandwidth = 0 },
		func(p *Params) { p.SendOverhead = -1 },
		func(p *Params) { p.RecvOverhead = -1 },
		func(p *Params) { p.EagerThreshold = -1 },
		func(p *Params) { p.RendezvousSetup = -1 },
	}
	for i, mutate := range mutations {
		p := EDR()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d passed Validate", i)
		}
	}
}

func TestSerializationTime(t *testing.T) {
	p := &Params{Bandwidth: 1e9, Latency: 0, EagerThreshold: 1 << 30}
	if got := p.serializationTime(1e9); got != sim.Second {
		t.Fatalf("1GB at 1GB/s = %v, want 1s", got)
	}
	if got := p.serializationTime(0); got != 0 {
		t.Fatalf("0 bytes = %v, want 0", got)
	}
}

func TestEagerRendezvousBoundary(t *testing.T) {
	p := EDR()
	if !p.Eager(p.EagerThreshold) {
		t.Fatal("message at threshold should be eager")
	}
	if p.Eager(p.EagerThreshold + 1) {
		t.Fatal("message above threshold should be rendezvous")
	}
}

func TestInjectAccountsOverheadAndBandwidth(t *testing.T) {
	p := EDR()
	n := NewNIC(p)
	size := int64(12000) // 1us at 12GB/s
	txDone, arrive := n.Inject(0, size, 0)
	wantTx := p.SendOverhead + p.serializationTime(size)
	if txDone != sim.Time(wantTx) {
		t.Fatalf("txDone = %v, want %v", txDone, wantTx)
	}
	if arrive != txDone.Add(p.Latency) {
		t.Fatalf("arrive = %v, want txDone+latency", arrive)
	}
}

func TestInjectSerializes(t *testing.T) {
	n := NewNIC(EDR())
	size := int64(120000)
	tx1, _ := n.Inject(0, size, 0)
	tx2, _ := n.Inject(0, size, 0) // same instant: must queue behind tx1
	if tx2 <= tx1 {
		t.Fatalf("second injection tx=%v not after first %v", tx2, tx1)
	}
	per := sim.Duration(tx1)
	if got := tx2.Sub(tx1); got != per {
		t.Fatalf("spacing = %v, want %v (per-message cost)", got, per)
	}
}

func TestInjectAfterIdleStartsImmediately(t *testing.T) {
	n := NewNIC(EDR())
	n.Inject(0, 1000, 0)
	idle := n.txBusy
	late := idle.Add(5 * sim.Microsecond)
	txDone, _ := n.Inject(late, 1000, 0)
	if txDone <= late {
		t.Fatal("injection did not progress")
	}
	wantStartBased := late.Add(EDR().SendOverhead + EDR().serializationTime(1000))
	if txDone != wantStartBased {
		t.Fatalf("txDone = %v, want %v (idle NIC starts at request time)", txDone, wantStartBased)
	}
}

func TestInjectExtraCost(t *testing.T) {
	n := NewNIC(EDR())
	extra := 3 * sim.Microsecond
	base, _ := NewNIC(EDR()).Inject(0, 1000, 0)
	with, _ := n.Inject(0, 1000, extra)
	if with.Sub(base) != extra {
		t.Fatalf("extra cost added %v, want %v", with.Sub(base), extra)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	n := NewNIC(EDR())
	mustPanic(t, "negative message size", func() { n.Inject(0, -1, 0) })
}

// TestGuardMessages trips the NIC's and the fabric's other guards and checks
// each message; a zero wire latency is allowed.
func TestGuardMessages(t *testing.T) {
	d := NewDragonflyPlus(4, 1, 2)
	for want, f := range map[string]func(){
		"negative cost parameter":     func() { NewNIC(&Params{Latency: -1, Bandwidth: 1}) },
		"negative latency":            func() { NewNIC(EDR()).InjectLat(0, 8, 0, -1) },
		"needs a positive rank count": func() { NewFabric(d, 0, 1) },
		"bandwidth must be positive":  func() { NewFabric(d, 1, 0) },
	} {
		mustPanic(t, want, f)
	}
	NewNIC(EDR()).InjectLat(0, 8, 0, 0)
}

// mustPanic runs f and fails t unless it panics with a value whose text
// contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if v := recover(); !strings.Contains(fmt.Sprint(v), want) {
			t.Errorf("panicked with %v, want a panic about %q", v, want)
		}
	}()
	f()
}

func TestDeliverSerializesAtReceiver(t *testing.T) {
	p := EDR()
	n := NewNIC(p)
	d1 := n.Deliver(0)
	d2 := n.Deliver(0)
	if d1 != sim.Time(p.RecvOverhead) {
		t.Fatalf("first delivery = %v, want %v", d1, p.RecvOverhead)
	}
	if d2 != d1.Add(p.RecvOverhead) {
		t.Fatalf("second delivery = %v, want %v", d2, d1.Add(p.RecvOverhead))
	}
	// A late arrival starts fresh.
	late := d2.Add(sim.Millisecond)
	d3 := n.Deliver(late)
	if d3 != late.Add(p.RecvOverhead) {
		t.Fatalf("late delivery = %v, want %v", d3, late.Add(p.RecvOverhead))
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := NewNIC(EDR())
	n.Inject(0, 100, 0)
	n.Inject(0, 200, 0)
	st := n.Stats()
	if st.Messages != 2 || st.Bytes != 300 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TxBusy <= 0 {
		t.Fatal("TxBusy not accumulated")
	}
}

// Property: injection completion times are strictly monotone for positive-
// cost messages, and arrive = txDone + latency always.
func TestQuickInjectMonotone(t *testing.T) {
	f := func(sizes []uint16, gaps []uint8) bool {
		n := NewNIC(EDR())
		now := sim.Time(0)
		last := sim.Time(-1)
		for i, sz := range sizes {
			if i < len(gaps) {
				now = now.Add(sim.Duration(gaps[i]))
			}
			txDone, arrive := n.Inject(now, int64(sz), 0)
			if txDone <= last {
				return false
			}
			if arrive != txDone.Add(EDR().Latency) {
				return false
			}
			last = txDone
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes in stats equals the sum of injected sizes.
func TestQuickStatsConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		n := NewNIC(EDR())
		var want int64
		for _, sz := range sizes {
			n.Inject(0, int64(sz), 0)
			want += int64(sz)
		}
		st := n.Stats()
		return st.Bytes == want && st.Messages == int64(len(sizes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHDRPreset pins the preset field by field, as TestEDRValidates does
// EDR, and checks that it is the faster fabric.
func TestHDRPreset(t *testing.T) {
	p := HDR()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	want := Params{Latency: 800 * sim.Nanosecond, Bandwidth: 24e9, SendOverhead: 450 * sim.Nanosecond,
		RecvOverhead: 280 * sim.Nanosecond, EagerThreshold: 16 << 10, RendezvousSetup: 350 * sim.Nanosecond}
	if *p != want {
		t.Errorf("HDR() = %+v, pinned at %+v", *p, want)
	}
	if p.Bandwidth <= EDR().Bandwidth {
		t.Fatal("HDR not faster than EDR")
	}
	if p.Latency >= EDR().Latency {
		t.Fatal("HDR latency not below EDR")
	}
}

func TestDerivedQuantities(t *testing.T) {
	p := EDR()
	if got := p.SmallMessageLatency(); got != p.SendOverhead+p.Latency+p.RecvOverhead {
		t.Fatalf("SmallMessageLatency = %v", got)
	}
	if got := p.MaxMessageRate(); got != 1e9/float64(p.SendOverhead) {
		t.Fatalf("MaxMessageRate = %v", got)
	}
	if (&Params{Bandwidth: 1}).MaxMessageRate() != 0 {
		t.Fatal("zero-overhead rate should report 0")
	}
	// RTS and CTS flights of o_s+L+o_r = 1.7 µs each, then setup, o_s, the
	// 87.381 µs serialization, L and o_r.
	if rl := p.RendezvousLatency(1 << 20); rl != 92881 {
		t.Fatalf("RendezvousLatency(1MiB) = %d ns, want 92881", int64(rl))
	}
}
