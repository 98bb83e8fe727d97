package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/client"
)

// Stored-lecture shape shared by vod_warm and vod_cold.
const (
	vodProfile  = "dsl-300k"
	vodDuration = 20 * time.Second
	// The pacer sends a packet LeadTime ahead of its timestamp; a lead
	// longer than the lecture makes every send time zero, so the pacing
	// code runs but never sleeps.
	vodLead = vodDuration + time.Second

	warmLectures = 8
	coldLectures = 64
	// coldCacheBytes holds about three and a half 850 KB lectures per
	// edge; a viewer walks more than four times that many per edge.
	coldCacheBytes = 3 << 20

	seekShare = 0.30
)

// seekGrid is the set of seek offsets vod_warm draws from: the middle
// half of the lecture. A fixed grid keeps the distinct (lecture, start)
// pairs few enough to verify each one before the window.
var seekGrid = []time.Duration{
	5 * time.Second, 7 * time.Second, 9 * time.Second,
	11 * time.Second, 13 * time.Second, 15 * time.Second,
}

func lectureName(i int) string { return fmt.Sprintf("lec-%03d", i) }

// warmOps is viewer's op stream on vod_warm: a uniformly drawn lecture,
// 70 % full plays and 30 % seeks onto the grid.
func warmOps(seed int64, viewer int) func() client.Spec {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(viewer)))
	return func() client.Spec {
		spec := client.Spec{Kind: client.VOD, Name: lectureName(rng.Intn(warmLectures))}
		if rng.Float64() < seekShare {
			spec.Start = seekGrid[rng.Intn(len(seekGrid))]
		}
		return spec
	}
}

// coldOps is viewer's op stream on vod_cold: a cyclic walk over the
// lectures congruent to viewer modulo viewers, entered at a seeded
// position. Viewers share no lecture, so no viewer warms the cache for
// another, and each walks far more lectures per edge than an edge
// holds: every demand is a miss.
func coldOps(seed int64, viewer, viewers int) func() client.Spec {
	var mine []int
	for i := viewer; i < coldLectures; i += viewers {
		mine = append(mine, i)
	}
	pos := rand.New(rand.NewSource(seed*1000003 + int64(viewer))).Intn(len(mine))
	return func() client.Spec {
		spec := client.Spec{Kind: client.VOD, Name: lectureName(mine[pos])}
		pos = (pos + 1) % len(mine)
		return spec
	}
}

// vodBench is a stored-lecture workload on its cluster.
type vodBench struct {
	c      *cluster
	e      env
	sdks   []*client.Client
	ops    []func() client.Spec
	expect map[opKey]expectation
}

func setupVODWarm(ctx context.Context, e env) (bench, error) {
	b, err := newVODBench(ctx, e, warmLectures, 0)
	if err != nil {
		return nil, err
	}
	// Pre-mirror every lecture on the edge the ring assigns it, so the
	// window's demands are all hits.
	for i := 0; i < warmLectures; i++ {
		edge, err := b.c.edgeFor(client.VOD, lectureName(i))
		if err == nil {
			err = edge.MirrorAsset(lectureName(i))
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	starts := append([]time.Duration{0}, seekGrid...)
	if err := b.verify(ctx, warmLectures, starts); err != nil {
		b.close()
		return nil, err
	}
	for v := 0; v < e.viewers; v++ {
		b.ops = append(b.ops, warmOps(e.seed, v))
	}
	return b, nil
}

func setupVODCold(ctx context.Context, e env) (bench, error) {
	b, err := newVODBench(ctx, e, coldLectures, coldCacheBytes)
	if err != nil {
		return nil, err
	}
	if err := b.verify(ctx, coldLectures, []time.Duration{0}); err != nil {
		b.close()
		return nil, err
	}
	for v := 0; v < e.viewers; v++ {
		b.ops = append(b.ops, coldOps(e.seed, v, e.viewers))
	}
	return b, nil
}

func newVODBench(ctx context.Context, e env, lectures int, cacheBytes int64) (*vodBench, error) {
	c, err := startCluster(ctx, e.scratch, cacheBytes, e.rec, func(c *cluster) error {
		for i := 0; i < lectures; i++ {
			l, err := encodeLecture(lectureName(i), vodProfile, vodDuration, vodLead, false, e.seed*1000+int64(i))
			if err != nil {
				return err
			}
			if err := c.publish(l); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &vodBench{c: c, e: e, expect: make(map[opKey]expectation)}
	for v := 0; v < e.viewers; v++ {
		b.sdks = append(b.sdks, c.sdk())
	}
	return b, nil
}

// verify runs one packet-for-packet checked session per (lecture,
// start) and records what it delivered. It doubles as the warm-up.
func (b *vodBench) verify(ctx context.Context, lectures int, starts []time.Duration) error {
	for i := 0; i < lectures; i++ {
		asset, ok := b.c.origin.Asset(lectureName(i))
		if !ok {
			return fmt.Errorf("origin lost %s", lectureName(i))
		}
		for _, start := range starts {
			spec := client.Spec{Kind: client.VOD, Name: lectureName(i), Start: start}
			exp, err := verifyStored(ctx, b.sdks[0], spec, asset)
			if err != nil {
				return err
			}
			b.expect[keyOf(spec)] = exp
		}
	}
	return nil
}

func (b *vodBench) run(ctx context.Context, window time.Duration) (*pass, error) {
	return closedLoop(b.c, b.e.gauge, b.e.viewers, window, loopHooks{}, func(v, i int, prog *progress) played {
		spec := b.ops[v]()
		id := uint64(v+1)<<32 | uint64(i)
		res := playStored(ctx, b.sdks[v], b.e.rec, id, spec, b.expect[keyOf(spec)], time.Now())
		prog.packets.Add(int64(res.packets))
		prog.payload.Add(res.payload)
		prog.wire.Add(res.wire)
		return res
	}), nil
}

func (b *vodBench) close() { b.c.Close() }
