package mpi

import "partmb/internal/sim"

// Collectives are implemented over point-to-point on a dedicated matching
// context, tagged by round. All ranks of the world must participate in
// every collective, in the same order (MPI semantics), and a collective
// sends at most one message per (source, destination, round). So the k-th
// message a rank receives from a peer with a given tag is the peer's k-th
// send of that tag to it, and since matching is FIFO per (context, source,
// tag), back-to-back collectives cannot cross-match even when ranks run
// skewed.

// Barrier blocks until every rank has entered the barrier, using the
// dissemination algorithm (ceil(log2 n) rounds of size-0 messages).
func (c *Comm) Barrier(p *sim.Proc) {
	n := c.size()
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return
	}
	me := c.Rank()
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		tag := round
		// Size-0 sends complete locally at injection, so a blocking send
		// followed by the receive cannot deadlock.
		c.sendColl(p, to, tag, 0)
		c.recvColl(p, from, tag)
	}
}

// recvColl posts and completes a receive on the collective context.
func (c *Comm) recvColl(p *sim.Proc, src, tag int) {
	c.irecvOn(p, c.state().takeReq(), src, tag, ctxColl).finish(p)
}

// isendColl starts a send of size bytes on the collective context.
func (c *Comm) isendColl(p *sim.Proc, dest, tag int, size int64) *Request {
	return c.isendOn(p, c.state().takeReq(), 0, dest, tag, ctxColl, size)
}

// sendColl sends on the collective context and waits for local completion.
func (c *Comm) sendColl(p *sim.Proc, dest, tag int, size int64) {
	c.isendColl(p, dest, tag, size).finish(p)
}

// Bcast models broadcasting size bytes from root over a binomial tree. Only
// timing is modeled; no payload is carried.
func (c *Comm) Bcast(p *sim.Proc, root int, size int64) {
	n := c.size()
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return
	}
	const tag = 0
	vrank := (c.Rank() - root + n) % n // position in the tree rooted at 0
	// Climb the mask until the bit where this rank receives its copy; the
	// root (vrank 0) never receives and exits with mask covering the tree.
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			src := (vrank - mask + root) % n
			c.recvColl(p, src, tag)
			break
		}
		mask <<= 1
	}
	// Forward to children below the received bit, highest distance first.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vrank+mask < n {
			dst := (vrank + mask + root) % n
			c.sendColl(p, dst, tag, size)
		}
	}
}

// reduce models reducing size bytes to root over a flat gather (each
// non-root rank sends its contribution; root receives all): the first half
// of Allreduce.
func (c *Comm) reduce(p *sim.Proc, root int, size int64) {
	n := c.size()
	if n == 1 {
		p.Sleep(c.world.cfg.CallOverhead)
		return
	}
	const tag = 0
	if c.Rank() == root {
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			c.recvColl(p, r, tag)
		}
		return
	}
	c.sendColl(p, root, tag, size)
}

// Allreduce models a reduce followed by a broadcast of size bytes.
func (c *Comm) Allreduce(p *sim.Proc, size int64) {
	c.reduce(p, 0, size)
	c.Bcast(p, 0, size)
}
