package mpi

import (
	"fmt"

	"partmb/internal/sim"
)

// Payload-carrying collectives: the timing-only collectives in
// collectives.go cover the benchmarks; these variants move real bytes for
// applications that use the library as an actual message-passing substrate
// (configuration distribution, result gathering).

// BcastData broadcasts root's payload to every rank over the binomial tree
// and returns it (the root returns its own slice; other ranks a received
// copy). Every rank must pass the same root; non-roots may pass nil data.
func (c *Comm) BcastData(p *sim.Proc, root int, data []byte) []byte {
	n := c.Size()
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
				data, _ = c.recvColl(p, src, tag)
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
			c.sendCollData(p, dst, tag, data)
		}
	}
	return data
}

// GatherData collects every rank's payload at root: the root returns a
// slice indexed by local rank (its own contribution included); other ranks
// return nil.
func (c *Comm) GatherData(p *sim.Proc, root int, data []byte) [][]byte {
	n := c.Size()
	gen := c.barrierGen
	c.barrierGen++
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return [][]byte{data}
	}
	tag := c.collTag(gen, 0)
	if c.Rank() != root {
		c.sendCollData(p, root, tag, data)
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
		got, _ := c.recvColl(p, r, tag)
		out[r] = got
	}
	return out
}

// AllgatherData is GatherData to rank 0 followed by a broadcast of the
// concatenated contributions; every rank returns the full per-rank slice.
func (c *Comm) AllgatherData(p *sim.Proc, data []byte) [][]byte {
	n := c.Size()
	gathered := c.GatherData(p, 0, data)
	// Flatten with a length-prefixed framing so the broadcast can carry it
	// as one payload, then re-split on every rank.
	var frame []byte
	if c.Rank() == 0 {
		for _, part := range gathered {
			frame = append(frame, byte(len(part)>>24), byte(len(part)>>16), byte(len(part)>>8), byte(len(part)))
			frame = append(frame, part...)
		}
	}
	frame = c.BcastData(p, 0, frame)
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

// sendCollData sends a payload on the collective context and waits for
// local completion.
func (c *Comm) sendCollData(p *sim.Proc, dest, tag int, data []byte) {
	c.finish(p, c.isendColl(p, dest, tag, int64(len(data)), data))
}
