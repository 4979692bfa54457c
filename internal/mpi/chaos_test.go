package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"partmb/internal/sim"
)

// TestQuickChaosTraffic drives randomized, matched traffic across random
// world shapes: random rank counts, mixed
// blocking/nonblocking/persistent/partitioned operations, random payload
// sizes straddling the eager threshold, random inter-op delays. The
// invariants: the world drains (no deadlock), every payload arrives intact,
// and per-pair FIFO order holds.
func TestQuickChaosTraffic(t *testing.T) {
	f := func(seed int64, ranksRaw, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nRanks := int(ranksRaw%4) + 2 // 2..5
		nOps := int(opsRaw%12) + 3    // 3..14 exchanges

		type exchange struct {
			from, to, tag int
			body          []byte
			partitioned   bool
			parts         int
		}
		var plan []exchange
		for i := 0; i < nOps; i++ {
			from := rng.Intn(nRanks)
			to := rng.Intn(nRanks)
			if to == from {
				to = (to + 1) % nRanks
			}
			size := 1 << uint(rng.Intn(18)) // 1B..128KiB
			body := make([]byte, size)
			rng.Read(body)
			ex := exchange{from: from, to: to, tag: 100 + i, body: body}
			if rng.Intn(3) == 0 && size >= 16 {
				ex.partitioned = true
				ex.parts = []int{2, 4, 8}[rng.Intn(3)]
				for size%ex.parts != 0 {
					ex.parts /= 2
				}
				if ex.parts < 1 {
					ex.parts = 1
				}
			}
			plan = append(plan, ex)
		}

		s := sim.New()
		cfg := DefaultConfig(nRanks)
		if rng.Intn(2) == 0 {
			cfg.PartImpl = PartNative
		}
		w := NewWorld(s, cfg)

		ok := true
		for r := 0; r < nRanks; r++ {
			r := r
			c := w.Comm(r)
			s.Spawn(fmt.Sprintf("chaos%d", r), func(p *sim.Proc) {
				// Partitioned inits must precede the barrier so native
				// binding completes before any Start.
				sends := make(map[int]*PRequest)
				recvs := make(map[int]*PRequest)
				for i, ex := range plan {
					if !ex.partitioned {
						continue
					}
					partBytes := int64(len(ex.body) / ex.parts)
					if ex.from == r {
						pr := c.PsendInit(p, ex.to, ex.tag, ex.parts, partBytes)
						pr.BindSendBuffer(ex.body)
						sends[i] = pr
					}
					if ex.to == r {
						recvs[i] = c.PrecvInit(p, ex.from, ex.tag, ex.parts, partBytes)
					}
				}
				c.Barrier(p)
				for i, ex := range plan {
					p.Sleep(sim.Duration(rng.Intn(3000)))
					if ex.from == r {
						if ex.partitioned {
							pr := sends[i]
							pr.Start(p)
							for j := 0; j < ex.parts; j++ {
								pr.Pready(p, j)
							}
							pr.Wait(p)
						} else {
							c.sendData(p, ex.to, ex.tag, ctxP2P, ex.body)
						}
					}
					if ex.to == r {
						if ex.partitioned {
							pr := recvs[i]
							buf := make([]byte, len(ex.body))
							pr.BindRecvBuffer(buf)
							pr.Start(p)
							pr.Wait(p)
							if !bytes.Equal(buf, ex.body) {
								ok = false
							}
						} else {
							data := c.recvData(p, ex.from, ex.tag, ctxP2P)
							if !bytes.Equal(data, ex.body) {
								ok = false
							}
						}
					}
				}
				c.Barrier(p)
			})
		}
		if err := s.Run(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
