package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"

	"partmb/internal/engine"
	"partmb/internal/figures"
	"partmb/internal/platform"
	"partmb/internal/report"
	"partmb/internal/sim"
)

// frozenQuick is a copy of figures.Quick() as of the commit that defined the
// benchmark. The workloads use the copy so that an edit to Quick() cannot
// silently change what they measure.
func frozenQuick() figures.Scale {
	return figures.Scale{
		Name:        "quick",
		Iterations:  3,
		Warmup:      1,
		MetricSizes: pow2Sizes(32<<10, 8<<20),
		PartCounts:  []int{1, 8, 32},
		SweepGridPx: 2, SweepGridPy: 2,
		SweepSizes:   pow2Sizes(64<<10, 1<<20),
		SweepRepeats: 1,
		SweepZBlocks: 2,
		SweepOctants: 4,
		HaloGrid:     2,
		HaloSizes:    pow2Sizes(256<<10, 2<<20),
		HaloRepeats:  2,
		SnapNodes:    []int{2, 8, 32},
	}
}

// pow2Sizes lists min, 2*min, ... up to and including max.
func pow2Sizes(min, max int64) []int64 {
	var out []int64
	for s := min; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

var figureNumbers = []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// figuresPass regenerates all ten figures on rn in the given order and
// returns the digest of their text rendering in figure order, so the digest
// does not depend on the order.
func figuresPass(rn *engine.Runner, sink *cellSink, seed int64, order []int, m *meter) (string, error) {
	tr, parent, id := m.tr, m.root, m.id
	env := figures.Env{Runner: rn, Spec: platform.Niagara().WithSeed(seed)}
	sc := frozenQuick()
	tables := map[int][]*report.Table{}
	for _, fig := range order {
		sp := tr.begin("figures.generate", parent, id)
		ts, err := env.Generate(fig, sc)
		tr.end(sp)
		tr.adopt(sink, sp, id)
		if err != nil {
			return "", fmt.Errorf("figure %d: %w", fig, err)
		}
		tables[fig] = ts
	}
	sp := tr.begin("report.render", parent, id)
	var buf bytes.Buffer
	for _, fig := range figureNumbers {
		if err := report.WriteAllText(&buf, tables[fig]); err != nil {
			return "", err
		}
	}
	tr.end(sp)
	return digestOf(buf.Bytes()), nil
}

// shuffledFigures draws a figure order from the run's seed.
func shuffledFigures(rc *runCtx, pass int) []int {
	order := append([]int(nil), figureNumbers...)
	rc.rng(int64(pass)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runFigsCold: every pass simulates all 318 distinct cells into an empty disk
// cache.
func runFigsCold(rc *runCtx) (*outcome, error) {
	return runBatch(rc, func() (passFunc, func(), error) {
		root, err := rc.tempDir("figs-cold-")
		if err != nil {
			return nil, nil, err
		}
		// Warm the process (heap, code pages) on the smallest figure; its
		// cells go to a directory no pass reads.
		warm, err := openCache(root, "warmup")
		if err != nil {
			return nil, nil, err
		}
		env := figures.Env{Runner: engine.New(engine.Workers(2), engine.WithDiskCache(warm)), Spec: platform.Niagara().WithSeed(rc.seed)}
		if _, err := env.Generate(13, frozenQuick()); err != nil {
			return nil, nil, err
		}
		pass := func(m *meter) (res passResult, err error) {
			err = m.measure(func() error {
				dc, err := openCache(root, fmt.Sprintf("pass-%d", m.id))
				if err != nil {
					return err
				}
				rn, sink := tracedRunner(m.tr, engine.Workers(2), engine.WithDiskCache(dc))
				res.digest, err = figuresPass(rn, sink, rc.seed, shuffledFigures(rc, m.id), m)
				res.stats = rn.Stats()
				return err
			})
			if st := res.stats; err == nil && (st.DiskHits != 0 || st.DiskWrites != st.Runs) {
				err = fmt.Errorf("cold pass used the disk cache wrongly: %s", st)
			}
			return res, err
		}
		return pass, func() { os.RemoveAll(root) }, nil
	})
}

func openCache(root, name string) (*engine.DiskCache, error) {
	dir := root + "/" + name
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return engine.OpenDiskCache(dir)
}

// runFigsWarm: set-up fills a cache directory with one cold pass; every
// measured pass opens that directory anew with a fresh runner, as a new
// process would, and must reproduce the cold digest without simulating.
func runFigsWarm(rc *runCtx) (*outcome, error) {
	var coldDigest string
	out, err := runBatch(rc, func() (passFunc, func(), error) {
		root, err := rc.tempDir("figs-warm-")
		if err != nil {
			return nil, nil, err
		}
		dc, err := openCache(root, "cells")
		if err != nil {
			return nil, nil, err
		}
		fill := engine.New(engine.Workers(2), engine.WithDiskCache(dc))
		if coldDigest, err = figuresPass(fill, nil, rc.seed, figureNumbers, &meter{root: -1}); err != nil {
			return nil, nil, err
		}
		pass := func(m *meter) (res passResult, err error) {
			err = m.measure(func() error {
				dc, err := openCache(root, "cells")
				if err != nil {
					return err
				}
				rn, sink := tracedRunner(m.tr, engine.Workers(2), engine.WithDiskCache(dc))
				res.digest, err = figuresPass(rn, sink, rc.seed, shuffledFigures(rc, m.id), m)
				res.stats = rn.Stats()
				return err
			})
			if err == nil && res.stats.Runs != 0 {
				err = fmt.Errorf("warm pass simulated %d cells", res.stats.Runs)
			}
			return res, err
		}
		return pass, func() { os.RemoveAll(root) }, nil
	})
	if err == nil && out.digests["tables"] != coldDigest {
		out.fail("warm digest %.12s differs from the cold fill's %.12s", out.digests["tables"], coldDigest)
	}
	return out, err
}

// stencil is one of the two scaling tables of the scale-* workloads.
type stencil struct {
	name  string
	ranks int
}

var stencils = []stencil{{"halo3d", 1000}, {"sweep3d", 256}}

// scalingPass generates both stencils' weak- and strong-scaling tables and
// digests them in a fixed order.
func scalingPass(shards int, seed int64, order []int, m *meter) (passResult, error) {
	tr, parent, id := m.tr, m.root, m.id
	rn, sink := tracedRunner(tr, engine.Workers(1), engine.WithoutCache())
	env := figures.Env{Runner: rn, Spec: platform.Niagara().WithSeed(seed)}
	tables := make([][]*report.Table, len(stencils))
	for _, i := range order {
		st := stencils[i]
		sp := tr.begin("figures.scaling", parent, id)
		ts, err := env.ScalingTables(figures.ScalingOptions{
			Stencil:      st.name,
			Ranks:        figures.ScalingRanks(st.ranks),
			Shards:       shards,
			Topology:     "dragonfly",
			BytesPerRank: 16384,
			Compute:      sim.Millisecond,
			Repeats:      1,
		})
		tr.end(sp)
		tr.adopt(sink, sp, id)
		if err != nil {
			return passResult{}, fmt.Errorf("%s: %w", st.name, err)
		}
		tables[i] = ts
	}
	sp := tr.begin("report.render", parent, id)
	var buf bytes.Buffer
	for _, ts := range tables {
		if err := report.WriteAllText(&buf, ts); err != nil {
			return passResult{}, err
		}
	}
	tr.end(sp)
	return passResult{digestOf(buf.Bytes()), rn.Stats()}, nil
}

func runScaling(rc *runCtx, shards int) (*outcome, error) {
	return runBatch(rc, func() (passFunc, func(), error) {
		// Warm the process on the same code path at 64 ranks.
		env := figures.Env{Runner: engine.New(engine.Workers(1), engine.WithoutCache()), Spec: platform.Niagara().WithSeed(rc.seed)}
		for _, st := range stencils {
			if _, err := env.ScalingTables(figures.ScalingOptions{
				Stencil: st.name, Ranks: []int{16, 64}, Shards: shards, Topology: "dragonfly",
				BytesPerRank: 16384, Compute: sim.Millisecond, Repeats: 1,
			}); err != nil {
				return nil, nil, err
			}
		}
		pass := func(m *meter) (res passResult, err error) {
			order := rc.rng(int64(m.id)).Perm(len(stencils))
			err = m.measure(func() error {
				res, err = scalingPass(shards, rc.seed, order, m)
				return err
			})
			return res, err
		}
		return pass, func() {}, nil
	})
}

func runScaleSeq(rc *runCtx) (*outcome, error)   { return runScaling(rc, 1) }
func runScaleShard(rc *runCtx) (*outcome, error) { return runScaling(rc, 4) }
