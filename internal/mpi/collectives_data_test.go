package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"partmb/internal/sim"
)

func TestBcastDataDeliversPayload(t *testing.T) {
	const ranks = 6
	payload := []byte("broadcast me")
	got := make([][]byte, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		var data []byte
		if c.Rank() == 2 {
			data = payload
		}
		got[c.Rank()] = c.bcastData(p, 2, data)
	})
	for r := 0; r < ranks; r++ {
		if !bytes.Equal(got[r], payload) {
			t.Fatalf("rank %d received %q", r, got[r])
		}
	}
}

func TestGatherDataCollectsAll(t *testing.T) {
	const ranks = 5
	var gathered [][]byte
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		mine := []byte(fmt.Sprintf("rank-%d", c.Rank()))
		out := c.gatherData(p, 1, mine)
		if c.Rank() == 1 {
			gathered = out
		} else if out != nil {
			t.Errorf("non-root rank %d got a gather result", c.Rank())
		}
	})
	if len(gathered) != ranks {
		t.Fatalf("gathered %d parts", len(gathered))
	}
	for r, part := range gathered {
		if string(part) != fmt.Sprintf("rank-%d", r) {
			t.Fatalf("slot %d = %q", r, part)
		}
	}
}

func TestAllgatherDataEveryRankSeesAll(t *testing.T) {
	const ranks = 4
	results := make([][][]byte, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		mine := bytes.Repeat([]byte{byte(c.Rank() + 1)}, c.Rank()+1) // varied lengths
		results[c.Rank()] = c.allgatherData(p, mine)
	})
	for r := 0; r < ranks; r++ {
		if len(results[r]) != ranks {
			t.Fatalf("rank %d got %d parts", r, len(results[r]))
		}
		for src, part := range results[r] {
			want := bytes.Repeat([]byte{byte(src + 1)}, src+1)
			if !bytes.Equal(part, want) {
				t.Fatalf("rank %d slot %d = %v, want %v", r, src, part, want)
			}
		}
	}
}

func TestBcastDataSingleRank(t *testing.T) {
	runWorld(t, 1, nil, func(c *Comm, p *sim.Proc) {
		if got := c.bcastData(p, 0, []byte("x")); string(got) != "x" {
			t.Errorf("single-rank bcast = %q", got)
		}
		if got := c.gatherData(p, 0, []byte("y")); len(got) != 1 || string(got[0]) != "y" {
			t.Errorf("single-rank gather = %v", got)
		}
	})
}

func TestBcastDataLargePayloadRendezvous(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	const ranks = 4
	ok := make([]bool, ranks)
	runWorld(t, ranks, nil, func(c *Comm, p *sim.Proc) {
		var data []byte
		if c.Rank() == 0 {
			data = payload
		}
		got := c.bcastData(p, 0, data)
		ok[c.Rank()] = bytes.Equal(got, payload)
	})
	for r, good := range ok {
		if !good {
			t.Fatalf("rank %d corrupted a rendezvous broadcast", r)
		}
	}
}

// The runtime's collectives are timing-only. The payload-carrying
// collectives below are built in the test from collective-context sends that
// carry data (sendData, recvData), to check that payloads survive the
// binomial tree, the flat gather and both protocols on the way.

// bcastData broadcasts root's payload to every rank over the binomial tree
// and returns it (the root returns its own slice; other ranks a received
// copy). Every rank must pass the same root; non-roots may pass nil data.
func (c *Comm) bcastData(p *sim.Proc, root int, data []byte) []byte {
	n := c.size()
	gen := c.barrierGen
	c.barrierGen++
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return data
	}
	tag := c.collTag(gen, 0)
	vrank := (c.Rank() - root + n) % n
	mask := 1
	if vrank != 0 {
		for mask < n {
			if vrank&mask != 0 {
				src := (vrank - mask + root) % n
				data = c.recvData(p, src, tag, ctxColl)
				break
			}
			mask <<= 1
		}
	} else {
		mask = nextPow2(n)
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			c.sendData(p, dst, tag, ctxColl, data)
		}
	}
	return data
}

// gatherData collects every rank's payload at root: the root returns a
// slice indexed by local rank (its own contribution included); other ranks
// return nil.
func (c *Comm) gatherData(p *sim.Proc, root int, data []byte) [][]byte {
	n := c.size()
	gen := c.barrierGen
	c.barrierGen++
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return [][]byte{data}
	}
	tag := c.collTag(gen, 0)
	if c.Rank() != root {
		c.sendData(p, root, tag, ctxColl, data)
		return nil
	}
	out := make([][]byte, n)
	out[root] = data
	// Receive from each non-root member; sources are disjoint, so posting
	// them per-rank keeps attribution simple.
	for r := 0; r < n; r++ {
		if r == root {
			continue
		}
		out[r] = c.recvData(p, r, tag, ctxColl)
	}
	return out
}

// allgatherData is gatherData to rank 0 followed by a broadcast of the
// concatenated contributions; every rank returns the full per-rank slice.
func (c *Comm) allgatherData(p *sim.Proc, data []byte) [][]byte {
	n := c.size()
	gathered := c.gatherData(p, 0, data)
	// Flatten with a length-prefixed framing so the broadcast can carry it
	// as one payload, then re-split on every rank.
	var frame []byte
	if c.Rank() == 0 {
		for _, part := range gathered {
			frame = append(frame, byte(len(part)>>24), byte(len(part)>>16), byte(len(part)>>8), byte(len(part)))
			frame = append(frame, part...)
		}
	}
	frame = c.bcastData(p, 0, frame)
	out := make([][]byte, 0, n)
	for len(frame) >= 4 {
		size := int(frame[0])<<24 | int(frame[1])<<16 | int(frame[2])<<8 | int(frame[3])
		frame = frame[4:]
		if size > len(frame) {
			panic(fmt.Sprintf("mpi: corrupt allgather frame: %d > %d", size, len(frame)))
		}
		out = append(out, frame[:size:size])
		frame = frame[size:]
	}
	if len(out) != n {
		panic(fmt.Sprintf("mpi: allgather decoded %d parts, want %d", len(out), n))
	}
	return out
}
