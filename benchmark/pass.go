package main

import (
	"bufio"
	"bytes"
	"context"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// env is what a workload needs from the command line.
type env struct {
	seed        int64
	scratch     string    // directory for the registry's catalog state
	rec         *recorder // nil: untraced pass
	viewers     int       // closed-loop viewers of stored lectures
	subscribers int       // live subscribers
	quick       bool      // tests only: short paced lectures
	gauge       *gauge    // the host-speed gauge, running for the whole process
}

// bench is one workload, set up on its own cluster and ready to run
// one measured window.
type bench interface {
	run(ctx context.Context, window time.Duration) (*pass, error)
	close()
}

// workloadDef names a workload. The names are stable: later issues
// cite them.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, e env) (bench, error)
}

var workloads = []workloadDef{
	{"vod_warm", setupVODWarm},
	{"vod_cold", setupVODCold},
	{"live_relay", setupLiveRelay},
	{"paced_class", setupPacedClass},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// pass is everything one measured window produced, before it is turned
// into named metrics.
type pass struct {
	tally
	elapsed    time.Duration // measured window
	begin, end usage
	heapMB     float64
	// gauge is the host factor over the window, and what the gauge
	// itself used in it, which is not the program's.
	gauge gaugeReading

	// Harness self-accounting. openLoop marks the paced workload, the
	// only one with a dispatch schedule and a real-time player to judge.
	openLoop          bool
	pauseMaxMs        float64
	genLagMs          []float64 // open loop: dispatch lateness per arrival
	stalledSessions   int       // sessions with >= 1 stall, disturbed or not
	undisturbed       int       // sessions no canary gap overlapped
	stalledUndisturbd int       // of those, with >= 1 stall
	lateMs            []float64 // paced player: lateness of every media event

	// Live path.
	published   int64
	creditWait  time.Duration
	lagUs       []float64
	dropped     int64 // by the origin channel: packets the relay chain lost
	droppedLate int64 // by edge channels: packets queued for viewers that had left

	// Cluster counters over the window.
	registry metrics.Snapshot
	edges    metrics.Snapshot // summed over edges
	origin   metrics.Snapshot
	// pacingLag is the edges' lod_pacing_lag_seconds bucket growth.
	pacingLag histogram

	// slices cut a closed-loop window into equal parts; nil in the open
	// loop, whose sessions outlast any slice.
	slices []sliceStat

	spans []span
}

// meter brackets a window: resource usage, the canary, and the
// cluster's own counters.
type meter struct {
	c       *cluster
	canary  *canary
	begin   usage
	regBase metrics.Snapshot
	orgBase metrics.Snapshot
	edgBase []metrics.Snapshot
	lagBase histogram
}

func beginWindow(c *cluster) *meter {
	m := &meter{c: c}
	m.regBase = c.registry.Metrics().Snapshot()
	m.orgBase = c.origin.Metrics().Snapshot()
	for _, e := range c.edges {
		m.edgBase = append(m.edgBase, e.Server.Metrics().Snapshot())
	}
	m.lagBase = pacingLagOf(c)
	if c.rec != nil {
		c.rec.take() // set-up spans are not part of the window
	}
	m.canary = startCanary()
	m.begin = readUsage()
	return m
}

// stop reads the window's resource usage; call it the moment the
// window closes, before stragglers finish.
func (m *meter) stop(p *pass) {
	p.end = readUsage()
	p.begin = m.begin
	p.elapsed = p.end.at.Sub(m.begin.at)
}

// finish fills in the cluster-side deltas once every session is over.
func (m *meter) finish(p *pass) {
	m.canary.Stop()
	p.pauseMaxMs = m.canary.maxGapMs()
	p.registry = m.c.registry.Metrics().Snapshot().Delta(m.regBase)
	p.origin = m.c.origin.Metrics().Snapshot().Delta(m.orgBase)
	p.edges = metrics.Snapshot{}
	for i, e := range m.c.edges {
		for k, v := range e.Server.Metrics().Snapshot().Delta(m.edgBase[i]) {
			p.edges[k] += v
		}
	}
	p.pacingLag = pacingLagOf(m.c).minus(m.lagBase)
	if m.c.rec != nil {
		p.spans = m.c.rec.take()
	}
	p.heapMB = heapInuseMB()
}

// histogram is a cumulative-bucket reading of one Prometheus histogram
// family, summed over its series.
type histogram struct {
	bounds []float64 // upper bounds, +Inf last
	counts []float64 // cumulative
}

func (h histogram) minus(base histogram) histogram {
	out := histogram{bounds: h.bounds, counts: append([]float64(nil), h.counts...)}
	for i := range base.counts {
		if i < len(out.counts) {
			out.counts[i] -= base.counts[i]
		}
	}
	return out
}

// quantile returns the upper bound of the bucket holding the
// q-quantile — an over-estimate by at most one bucket width — and the
// observation count. The +Inf bucket reports the largest finite bound.
func (h histogram) quantile(q float64) (float64, int) {
	if len(h.counts) == 0 {
		return 0, 0
	}
	total := h.counts[len(h.counts)-1]
	if total <= 0 {
		return 0, 0
	}
	for i, c := range h.counts {
		if c >= q*total {
			b := h.bounds[i]
			if math.IsInf(b, 1) && i > 0 {
				b = h.bounds[i-1]
			}
			return b, int(total)
		}
	}
	return 0, int(total)
}

// pacingLagOf reads the pacing-lag buckets of every edge. Bucket detail
// is only on the Prometheus text exposition, so that is what is parsed.
func pacingLagOf(c *cluster) histogram {
	var sum histogram
	for _, e := range c.edges {
		h := readHistogram(e.Server.Metrics(), "lod_pacing_lag_seconds")
		if sum.bounds == nil {
			sum = h
			continue
		}
		for i := range h.counts {
			sum.counts[i] += h.counts[i]
		}
	}
	return sum
}

func readHistogram(reg *metrics.Registry, family string) histogram {
	var buf bytes.Buffer
	_ = reg.WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	var h histogram
	prefix := family + `_bucket{le="`
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.Index(rest, `"} `)
		if end < 0 {
			continue
		}
		bound, err1 := strconv.ParseFloat(rest[:end], 64)
		count, err2 := strconv.ParseFloat(rest[end+3:], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		h.bounds = append(h.bounds, bound)
		h.counts = append(h.counts, count)
	}
	return h
}

// progress is one viewer's running count of verified deliveries, read
// by the sampler at slice boundaries. Padded so viewers do not share a
// cache line.
type progress struct {
	packets, payload, wire, sessions atomic.Int64
	_                                [32]byte
}

// sliceStat is one slice of a closed-loop window. Each slice is
// corrected by its own host factor and the end-to-end figures are
// medians over the slices, so that a pause of the host, or a few
// seconds the gauge tracked badly, moves a slice and not the result.
type sliceStat struct {
	seconds                          float64
	host                             float64 // host factor over the slice
	sessions, packets, payload, wire float64
	cpuUs, mallocs, allocBytes       float64   // the gauge's own excluded
	startup, session                 []float64 // ms, sorted
}

// maxSlices is how many slices a closed-loop window is cut into at most;
// a slice is never shorter than a second, so that it holds enough
// sessions for a median.
const maxSlices = 60

// maxWarmup is the untimed run-in before a closed-loop window: long
// enough for the runtime's heap target, the connection pools and the
// host's CPU clock to settle.
const maxWarmup = 2 * time.Second

// loopHooks lets a workload follow the closed loop's phases.
type loopHooks struct {
	begin func()           // the timed window starts now
	stop  func(p *pass)    // the timed window ends now
	leave func(viewer int) // this viewer's goroutine is ending
}

// closedLoop runs viewers goroutines, each calling op in a loop: first
// untimed for the warm-up, then for the timed window, which it brackets
// with a meter and samples at every slice boundary. A session that ends
// after the window is finished but not counted, so the tallies cover
// exactly the window the meter brackets.
func closedLoop(c *cluster, g *gauge, viewers int, window time.Duration, hooks loopHooks,
	op func(viewer, i int, prog *progress) played) *pass {

	type ended struct {
		at time.Time
		played
	}
	var (
		begin    atomic.Int64 // window start, Unix ns; 0 while warming up
		deadline atomic.Int64
		prog     = make([]progress, viewers)
		results  = make([][]ended, viewers)
		wg       sync.WaitGroup
	)
	for v := 0; v < viewers; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			if hooks.leave != nil {
				defer hooks.leave(v)
			}
			for i := 0; ; i++ {
				res := op(v, i, &prog[v])
				now := time.Now()
				if d := deadline.Load(); d != 0 && now.UnixNano() > d {
					return
				}
				if b := begin.Load(); b != 0 && res.begin.UnixNano() >= b {
					res.metrics = nil // the event log of every session would be most of the heap
					results[v] = append(results[v], ended{now, res})
					if res.err == nil {
						prog[v].sessions.Add(1)
					}
				}
			}
		}(v)
	}
	slices := int(window / time.Second)
	if slices > maxSlices {
		slices = maxSlices
	}
	if slices < 1 {
		slices = 1
	}
	warmup := window / 5
	if warmup > maxWarmup {
		warmup = maxWarmup
	}
	time.Sleep(warmup)

	p := &pass{}
	m := beginWindow(c)
	if hooks.begin != nil {
		hooks.begin()
	}
	begin.Store(m.begin.at.UnixNano())
	deadline.Store(m.begin.at.Add(window).UnixNano())

	type reading struct {
		usage
		sessions, packets, payload, wire int64
	}
	read := func(u usage) reading {
		r := reading{usage: u}
		for v := range prog {
			r.sessions += prog[v].sessions.Load()
			r.packets += prog[v].packets.Load()
			r.payload += prog[v].payload.Load()
			r.wire += prog[v].wire.Load()
		}
		return r
	}
	readings := []reading{read(m.begin)}
	for k := 1; k < slices; k++ {
		time.Sleep(time.Until(m.begin.at.Add(window * time.Duration(k) / time.Duration(slices))))
		readings = append(readings, read(readUsage()))
	}
	time.Sleep(time.Until(m.begin.at.Add(window)))
	m.stop(p)
	if hooks.stop != nil {
		hooks.stop(p)
	}
	readings = append(readings, read(p.end))
	wg.Wait()
	m.finish(p)
	p.gauge = g.between(p.begin.at, p.end.at)

	p.slices = make([]sliceStat, slices)
	for k := range p.slices {
		a, b := readings[k], readings[k+1]
		own := g.between(a.at, b.at)
		p.slices[k] = sliceStat{
			seconds:    b.at.Sub(a.at).Seconds(),
			host:       own.host,
			sessions:   float64(b.sessions - a.sessions),
			packets:    float64(b.packets - a.packets),
			payload:    float64(b.payload - a.payload),
			wire:       float64(b.wire - a.wire),
			cpuUs:      us(b.cpu - a.cpu - own.cpu),
			mallocs:    float64(b.mallocs-a.mallocs) - own.mallocs,
			allocBytes: float64(b.allocBytes-a.allocBytes) - own.allocBytes,
		}
	}
	for v := range results {
		for _, r := range results[v] {
			p.add(r.played)
			if r.err != nil {
				continue
			}
			k := int(r.at.Sub(m.begin.at) * time.Duration(slices) / window)
			if k >= slices {
				k = slices - 1
			}
			p.slices[k].startup = append(p.slices[k].startup, r.startupMs)
			p.slices[k].session = append(p.slices[k].session, r.sessionMs)
		}
	}
	for k := range p.slices {
		sort.Float64s(p.slices[k].startup)
		sort.Float64s(p.slices[k].session)
	}
	return p
}
