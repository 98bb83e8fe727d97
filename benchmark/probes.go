package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/edgecache"
	"repro/internal/encoder"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/player"
	"repro/internal/proto"
	"repro/internal/relay"
	"repro/internal/streaming"
	"repro/internal/vclock"
)

// Direct probes time public functions of single layers on one standard
// lecture, outside any cluster. They run after the traced window, when
// the process is otherwise quiet, so a malloc delta around a loop is
// that loop's own.

// timed runs fn n times and returns nanoseconds and mallocs per call.
func timed(n int, fn func()) (nsPer, allocsPer float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(el) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink int

// runProbes fills out with every probe-sourced per-layer metric.
func runProbes(ctx context.Context, seed int64, scratch string, out metricSet) error {
	profile, err := codec.ByName(vodProfile)
	if err != nil {
		return err
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "probe", Duration: vodDuration, Profile: profile, SlideCount: 3, Seed: seed,
	})
	if err != nil {
		return err
	}

	// encoder: lecture → container bytes.
	var container []byte
	const encodes = 8
	ns, _ := timed(encodes, func() {
		var buf bytes.Buffer
		if _, err = encoder.EncodeLecture(lec, encoder.Config{LeadTime: vodLead}, &buf); err == nil {
			container = buf.Bytes()
		}
	})
	if err != nil {
		return err
	}
	out.set("encoder.encode_mb_per_s", float64(len(container))/1e6/(ns/1e9), encodes)

	_, packets, _, err := asf.ReadAll(bytes.NewReader(container))
	if err != nil {
		return err
	}
	n := len(packets)

	// asf: decode, encode to the shared wire form, write the shared form.
	const passes = 8
	ns, allocs := timed(passes, func() {
		r := asf.NewReader(bytes.NewReader(container))
		if _, err = r.ReadHeader(); err != nil {
			return
		}
		for {
			p, rerr := r.ReadPacket()
			if rerr != nil {
				break
			}
			sink += len(p.Payload)
		}
	})
	if err != nil {
		return err
	}
	out.set("asf.read_ns_per_packet", ns/float64(n), passes*n)
	out.set("asf.read_allocs_per_packet", allocs/float64(n), passes*n)

	shared := make([]*asf.Shared, n)
	ns, allocs = timed(passes, func() {
		for i, p := range packets {
			shared[i], err = asf.NewShared(p)
		}
	})
	if err != nil {
		return err
	}
	out.set("asf.encode_ns_per_packet", ns/float64(n), passes*n)
	out.set("asf.encode_allocs_per_packet", allocs/float64(n), passes*n)

	header, _ := asf.NewReader(bytes.NewReader(container)).ReadHeader()
	ns, _ = timed(passes, func() {
		w, werr := asf.NewWriter(io.Discard, header)
		if werr != nil {
			err = werr
			return
		}
		for _, sp := range shared {
			_ = w.WriteShared(sp) // io.Discard cannot fail
		}
	})
	if err != nil {
		return err
	}
	out.set("asf.write_shared_ns_per_packet", ns/float64(n), passes*n)

	// player: scripted playback of the container from memory.
	ns, _ = timed(passes, func() {
		m, perr := player.New(player.Options{}).Play(bytes.NewReader(container))
		if perr != nil {
			err = perr
			return
		}
		sink += m.VideoFrames
	})
	if err != nil {
		return err
	}
	out.set("player.play_ns_per_packet", ns/float64(n), passes*n)

	// streaming: register, seek, publish.
	var asset *streaming.Asset
	regMs := make([]float64, 0, passes)
	for i := 0; i < passes; i++ {
		t0 := time.Now()
		asset, err = streaming.NewServer(nil).RegisterAsset("probe", asf.NewReader(bytes.NewReader(container)))
		if err != nil {
			return err
		}
		regMs = append(regMs, ms(time.Since(t0)))
	}
	out.set("streaming.register_asset_ms", median(regMs), passes)

	const seeks = 200000
	ns, _ = timed(seeks, func() { sink += asset.SeekIndex(time.Duration(sink%20) * time.Second) })
	out.set("streaming.seek_index_ns", ns, seeks)

	ch, err := streaming.NewChannel("probe", header)
	if err != nil {
		return err
	}
	var drained sync.WaitGroup
	for i := 0; i < 2; i++ {
		sub, err := ch.Subscribe()
		if err != nil {
			return err
		}
		drained.Add(1)
		go func() {
			defer drained.Done()
			for range sub.C {
			}
		}()
	}
	ns, _ = timed(passes, func() {
		for _, p := range packets {
			_ = ch.Publish(p) // the channel stays open for the whole loop
		}
	})
	ch.Close()
	drained.Wait()
	out.set("streaming.publish_ns_per_packet", ns/float64(n), passes*n)

	// relay: the registry's ring lookup and the edge's resident-hit path.
	reg := relay.NewRegistry(nil)
	defer reg.Close()
	for i := 0; i < edgeCount; i++ {
		id := fmt.Sprintf("probe-%d", i)
		if err := reg.Register(relay.NodeInfo{ID: id, URL: "http://" + id}); err != nil {
			return err
		}
	}
	key := proto.StreamPath(proto.StreamVOD, "probe")
	const picks = 200000
	ns, _ = timed(picks, func() {
		if _, perr := reg.PickFor(key); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	out.set("registry.pick_ns", ns, picks)

	edgeSrv := streaming.NewServer(nil)
	if _, err := edgeSrv.RegisterAsset("probe", asf.NewReader(bytes.NewReader(container))); err != nil {
		return err
	}
	edge := relay.NewEdge(originURL, edgeSrv)
	const hits = 100000
	ns, _ = timed(hits, func() {
		if merr := edge.MirrorAsset("probe"); merr != nil {
			err = merr
		}
	})
	if err != nil {
		return err
	}
	out.set("edge.mirror_hit_ns", ns, hits)

	probeEdgecache(seed, out)

	// catalog: one durable Apply (write, fsync, repoint) per mutation.
	dir, err := os.MkdirTemp(scratch, "probe-catalog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := catalog.Open(dir)
	if err != nil {
		return err
	}
	const applies = 20
	applyUs := make([]float64, 0, applies)
	for i := 0; i < applies; i++ {
		name := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		if _, err := store.Apply(func(st *catalog.State) { st.PublishAsset(name) }); err != nil {
			store.Close()
			return err
		}
		applyUs = append(applyUs, us(time.Since(t0)))
	}
	store.Close()
	out.set("catalog.apply_us_p50", median(applyUs), applies)

	probeWheel(ctx, out)

	// metrics: the counter-plus-histogram pair on every served packet's path.
	mreg := metrics.NewRegistry()
	counter := mreg.Counter("probe_total", "probe")
	hist := mreg.Histogram("probe_seconds", "probe", nil)
	const observes = 1000000
	ns, _ = timed(observes, func() { counter.Inc(); hist.Observe(0.003) })
	out.set("metrics.observe_ns", ns, observes)

	return probeMemNet(ctx, out)
}

// probeEdgecache times the cache's two operations on a standalone
// cache: a recency touch of a resident entry, and an admission — Add
// plus Enforce at the byte budget — on a seeded Zipf key stream.
func probeEdgecache(seed int64, out metricSet) {
	const (
		keys   = 256
		size   = 1 << 20
		budget = 32 * size
		ops    = 100000
	)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("asset-%03d", i)
	}
	cache := edgecache.New(edgecache.Config{})
	unpinned := func(string) bool { return false }
	for _, name := range names[:32] {
		cache.Add(name, size)
	}
	i := 0
	ns, _ := timed(ops, func() { cache.Touch(names[i%32]); i++ })
	out.set("edgecache.touch_ns", ns, ops)

	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, keys-1)
	stream := make([]string, ops)
	for i := range stream {
		stream[i] = names[zipf.Uint64()]
	}
	i = 0
	ns, allocs := timed(ops, func() {
		name := stream[i]
		i++
		cache.RecordPull(name)
		cache.Add(name, size)
		ev, rej := cache.Enforce(budget, name, unpinned)
		sink += len(ev) + len(rej)
	})
	out.set("edgecache.admit_ns", ns, ops)
	out.set("edgecache.admit_allocs", allocs, ops)
}

// probeWheel measures how late the server's pacing wheel wakes a
// sleeper: ten concurrent sleepers, mostly 1 ms with some 5 and 20 ms,
// as paced sessions sharing slots would.
func probeWheel(ctx context.Context, out metricSet) {
	wheel := vclock.NewWheel(nil, vclock.DefaultGranularity)
	const sleepers, each = 10, 100
	late := make([][]float64, sleepers)
	var wg sync.WaitGroup
	for g := 0; g < sleepers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				d := time.Millisecond
				switch {
				case i%20 == 19:
					d = 20 * time.Millisecond
				case i%7 == 6:
					d = 5 * time.Millisecond
				}
				t0 := time.Now()
				if wheel.Sleep(ctx, d) != nil {
					return
				}
				late[g] = append(late[g], us(time.Since(t0)-d))
			}
		}(g)
	}
	wg.Wait()
	var all []float64
	for _, l := range late {
		all = append(all, l...)
	}
	sort.Float64s(all)
	out.set("vclock.wheel_late_us_p50", quantile(all, 0.5), len(all))
	out.set("vclock.wheel_late_us_p99", tail(all, 0.99), len(all))
}

// probeMemNet measures the floor the transport puts under every
// startup: a GET of an empty handler over its own MemNet.
func probeMemNet(ctx context.Context, out metricSet) error {
	mn := netsim.NewMemNet()
	defer mn.Close()
	l, err := mn.Listen("probe.lod")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	go func() { _ = srv.Serve(l) }()
	defer srv.Close()
	hc := mn.Client()
	defer hc.CloseIdleConnections()
	const gets = 2000
	rtt := make([]float64, 0, gets)
	for i := 0; i < gets; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://probe.lod/", nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtt = append(rtt, us(time.Since(t0)))
	}
	sort.Float64s(rtt)
	out.set("netsim.rtt_us_p50", quantile(rtt, 0.5), gets)
	return nil
}
