package core

import (
	"fmt"
	"math"
	"sort"

	"partmb/internal/engine"
)

// The paper's headline guidance (abstract, §6): partition count should be
// chosen from the message size, compute amount, system noise and platform.
// Advise automates that search: it sweeps candidate partition counts at one
// (message size, compute, noise) point and ranks them by a composite of the
// four metrics.

// AdvisorWeights control the ranking objective. The defaults reward high
// availability and early-bird communication and penalize raw overhead,
// which matches how the paper reads its own figures.
type AdvisorWeights struct {
	// Availability weight (higher availability is better).
	Availability float64
	// EarlyBird weight (fraction, 0..1 after normalization).
	EarlyBird float64
	// Overhead weight (applied to -log2(overhead): doubling the overhead
	// costs a fixed amount).
	Overhead float64
	// SocketSpill is subtracted when the thread count crosses sockets —
	// the paper's platform advice (§4.2): "application designers should
	// consider the platform to ensure that partition counts ... are
	// associated with a single socket".
	SocketSpill float64
	// Oversubscribe is subtracted when threads exceed physical cores.
	Oversubscribe float64
}

// DefaultAdvisorWeights returns the standard ranking objective.
func DefaultAdvisorWeights() AdvisorWeights {
	return AdvisorWeights{
		Availability:  1.0,
		EarlyBird:     0.5,
		Overhead:      0.3,
		SocketSpill:   0.05,
		Oversubscribe: 0.2,
	}
}

// Candidate is one evaluated partition count.
type Candidate struct {
	Partitions int
	Result     *Result
	// Score is the weighted objective; higher is better.
	Score float64
	// Fits reports whether the thread count fits a single socket (the
	// paper's platform advice: avoid spilling partitions across sockets).
	FitsSocket bool
	// Oversubscribed reports whether threads exceed physical cores.
	Oversubscribed bool
}

// Advice is the advisor's output: candidates ranked best-first.
type Advice struct {
	Config     Config
	Candidates []Candidate
}

// best returns the top-ranked candidate.
func (a *Advice) best() Candidate {
	if len(a.Candidates) == 0 {
		panic("core: empty advice")
	}
	return a.Candidates[0]
}

// String renders a short human-readable recommendation.
func (a *Advice) String() string {
	b := a.best()
	s := fmt.Sprintf("recommended partitions for %s @ %v compute: %d (overhead %.2fx, availability %.2f, early-bird %.0f%%)",
		FormatBytes(a.Config.MessageBytes), a.Config.Compute, b.Partitions,
		b.Result.Overhead, b.Result.Availability, b.Result.EarlyBird)
	if !b.FitsSocket {
		s += " [spills across sockets]"
	}
	if b.Oversubscribed {
		s += " [oversubscribed]"
	}
	return s
}

// Advise sweeps the candidate partition counts (counts that do not divide
// the message size are skipped) on the runner's worker pool and ranks them.
// base.Partitions is ignored. A nil runner is sweepPartitions' nil runner.
func Advise(rn *engine.Runner, base Config, counts []int, w AdvisorWeights) (*Advice, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16, 32}
	}
	base = base.withDefaults()
	results, err := sweepPartitions(rn, base, counts)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("core: no candidate partition count divides %d bytes", base.MessageBytes)
	}
	machine := base.Platform.Machine
	adv := &Advice{Config: base}
	for _, r := range results {
		n := r.Config.Partitions
		c := Candidate{
			Partitions:     n,
			Result:         r,
			FitsSocket:     n <= machine.CoresPerSocket,
			Oversubscribed: n > machine.TotalCores(),
		}
		c.Score = score(r, w)
		if !c.FitsSocket {
			c.Score -= w.SocketSpill
		}
		if c.Oversubscribed {
			c.Score -= w.Oversubscribe
		}
		adv.Candidates = append(adv.Candidates, c)
	}
	sort.SliceStable(adv.Candidates, func(i, j int) bool {
		// Higher score first; ties favor fewer partitions (fewer threads
		// to manage for the same benefit).
		if adv.Candidates[i].Score != adv.Candidates[j].Score {
			return adv.Candidates[i].Score > adv.Candidates[j].Score
		}
		return adv.Candidates[i].Partitions < adv.Candidates[j].Partitions
	})
	return adv, nil
}

// score computes the weighted objective for one result. Overhead enters as
// log2 so that doubling it costs a fixed amount.
func score(r *Result, w AdvisorWeights) float64 {
	if r.Overhead <= 0 {
		panic("core: non-positive overhead in advisor score")
	}
	s := w.Availability * r.Availability
	s += w.EarlyBird * (r.EarlyBird / 100)
	s -= w.Overhead * math.Log2(r.Overhead)
	return s
}
