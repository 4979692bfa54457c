package main

import (
	"sync"
	"testing"
	"time"
)

// A server that stalls once must be charged for every request the stall
// delayed: with one connection, the requests that were due during the stall
// wait in the queue, and their latency counts from when they were due.
func TestOpenLoopTimesFromDueTimeUnderAStall(t *testing.T) {
	const (
		rate  = 200.0 // one request every 5 ms
		stall = 60 * time.Millisecond
	)
	var mu sync.Mutex
	var order []int
	shots := openLoop(rate, 20, 1, func(i int) bool {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		if i == 2 {
			time.Sleep(stall)
		}
		return i != 5 // one failed reply
	})
	for i, s := range shots {
		if s.Index != i || order[i] != i {
			t.Fatalf("request %d sent out of order (%v)", i, order)
		}
		if want := time.Duration(i) * 5 * time.Millisecond; s.Due.Sub(shots[0].Due) != want {
			t.Fatalf("request %d due %v after the first, want %v", i, s.Due.Sub(shots[0].Due), want)
		}
		// The generator never waits for the server, so it stays on schedule
		// through the stall. (Generous: a loaded CI host can hiccup.)
		if s.Late < 0 || s.Late > 20*time.Millisecond {
			t.Errorf("request %d released %v late", i, s.Late)
		}
		if s.OK == (i == 5) {
			t.Errorf("request %d ok = %v", i, s.OK)
		}
	}
	// Request 3 was due 5 ms into the stall and could not be sent until it
	// ended: it waited about 55 ms, although the server answered it at once.
	if got := shots[3].latency(); got < stall-10*time.Millisecond {
		t.Errorf("request 3 behind the stall: latency %v, want about %v", got, stall-5*time.Millisecond)
	}
	if wait := shots[3].Sent.Sub(shots[3].Due); wait < stall-10*time.Millisecond {
		t.Errorf("request 3 waited %v for the connection, want about %v", wait, stall-5*time.Millisecond)
	}
	// The backlog drains: the last request is on time again.
	if got := shots[19].latency(); got > 20*time.Millisecond {
		t.Errorf("last request still late by %v", got)
	}
}

func TestClosedLoopStopsAtLimitAndCountsRates(t *testing.T) {
	shots := closedLoop(time.Second, 2, 10, func(int) bool { time.Sleep(time.Millisecond); return true })
	if len(shots) != 10 {
		t.Fatalf("closed loop sent %d requests, want the limit of 10", len(shots))
	}
	seen := map[int]bool{}
	for _, s := range shots {
		seen[s.Index] = true
	}
	if len(seen) != 10 {
		t.Fatalf("indices repeat: %v", shots)
	}

	start := time.Unix(100, 0)
	at := func(ms int) time.Time { return start.Add(time.Duration(ms) * time.Millisecond) }
	rates := ratePerSlice([]shot{
		{Due: at(0), Done: at(10)}, {Due: at(10), Done: at(499)}, // slice 0
		{Due: at(400), Done: at(500)},  // slice 1
		{Due: at(900), Done: at(1200)}, // beyond the loop: dropped
	}, time.Second, 500*time.Millisecond)
	if len(rates) != 2 || rates[0] != 4 || rates[1] != 2 {
		t.Fatalf("rates = %v, want [4 2]", rates)
	}
}

func TestMixIsExactlyOneMissInTen(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		m := &mix{Seed: seed, Hot: make([][]byte, sweepdHotPool)}
		positions := map[int]bool{}
		for block := 0; block < 200; block++ {
			misses := 0
			for i := block * 10; i < block*10+10; i++ {
				if m.isMiss(i) {
					misses++
					positions[i%10] = true
				} else if k := m.hotIndex(i); k < 0 || k >= sweepdHotPool {
					t.Fatalf("hot index %d out of range", k)
				}
			}
			if misses != 1 {
				t.Fatalf("seed %d block %d has %d misses, want 1", seed, block, misses)
			}
		}
		if len(positions) != 10 {
			t.Errorf("seed %d: misses only ever fall on positions %v", seed, positions)
		}
	}
}
