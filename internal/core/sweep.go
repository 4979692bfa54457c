package core

import (
	"context"
	"fmt"

	"partmb/internal/engine"
)

// MessageSizes returns the power-of-two sweep [min, max] used on the
// figures' x axes. It panics on a range SizeRange rejects: a range that
// comes from a user goes through SizeRange instead.
func MessageSizes(min, max int64) []int64 {
	sizes, err := SizeRange(min, max)
	if err != nil {
		panic(err.Error())
	}
	return sizes
}

// SizeRange returns the power-of-two sweep [min, max], or an error when
// the range is empty or not positive.
func SizeRange(min, max int64) ([]int64, error) {
	if min <= 0 || max < min {
		return nil, fmt.Errorf("core: bad size range [%d, %d]", min, max)
	}
	var out []int64
	for s := min; ; s *= 2 {
		out = append(out, s)
		if s > max/2 {
			// The next doubling would exceed max — or wrap negative when
			// max is within 2x of MaxInt64, which used to loop forever.
			break
		}
	}
	return out, nil
}

// SweepMessageSizes runs the benchmark at every message size on the
// runner's worker pool, holding the rest of base fixed, and returns results
// in size order. Sizes not divisible by the partition count are skipped
// (they cannot be partitioned evenly, the MPIPCL restriction). A nil runner
// means a fresh engine.New(): GOMAXPROCS lanes and a throw-away memo.
func SweepMessageSizes(rn *engine.Runner, base Config, sizes []int64) ([]*Result, error) {
	var eligible []int64
	for _, size := range sizes {
		if size%int64(base.Partitions) == 0 {
			eligible = append(eligible, size)
		}
	}
	return sweep(rn, len(eligible), func(i int) (Config, string) {
		cfg := base
		cfg.MessageBytes = eligible[i]
		return cfg, fmt.Sprintf("size %s", FormatBytes(eligible[i]))
	})
}

// SweepPartitions runs the benchmark at every partition count on the
// runner's worker pool, holding the rest of base fixed, and returns results
// in count order. Counts that do not divide the message size are skipped.
// A nil runner means a fresh engine.New(), as in SweepMessageSizes.
func SweepPartitions(rn *engine.Runner, base Config, counts []int) ([]*Result, error) {
	var eligible []int
	for _, n := range counts {
		if base.MessageBytes%int64(n) == 0 {
			eligible = append(eligible, n)
		}
	}
	return sweep(rn, len(eligible), func(i int) (Config, string) {
		cfg := base
		cfg.Partitions = eligible[i]
		return cfg, fmt.Sprintf("partitions %d", eligible[i])
	})
}

// sweep executes n benchmark cells through the runner, labelling errors
// with the cell description. The engine keeps the reported error the one a
// serial loop would have hit first under any dispatch order (see
// engine/schedule.go), and is given the size x partitions heuristic as the
// cost function so the expensive cells start first.
func sweep(rn *engine.Runner, n int, cell func(i int) (Config, string)) ([]*Result, error) {
	r := engine.OrDefault(rn)
	cost := func(i int) float64 {
		cfg, _ := cell(i)
		parts := cfg.Partitions
		if parts < 1 {
			parts = 1
		}
		c := float64(cfg.MessageBytes) * float64(parts)
		if cfg.Adaptive != nil {
			// An adaptive cell may draw up to MaxSamples iterations; scale
			// by the worst case so the potentially expensive cells still
			// start first.
			c *= float64(cfg.Adaptive.MaxSamples)
		}
		return c
	}
	results, err := r.Sweep(context.Background(), n, cost,
		func(_ context.Context, i int) (any, error) {
			cfg, label := cell(i)
			res, err := RunCached(r, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", label, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, n)
	for i, v := range results {
		out[i] = v.(*Result)
	}
	return out, nil
}
