package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef is one named metric: the glossary in README.md and the
// lists in BENCHMARK.json carry the same names, units and directions.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEndDefs are what a user of the cluster sees. Every one is
// reported, from an untraced window, on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"startup_ms_p50", "ms", "lower"},
	{"session_ms_p50", "ms", "lower"},
	{"session_ms_p75", "ms", "lower"},
	{"delivered_mb_per_s", "MB/s", "higher"},
	{"packets_per_s", "1/s", "higher"},
	{"cpu_us_per_packet", "us", "lower"},
	{"allocs_per_packet", "count", "lower"},
	{"alloc_bytes_per_packet", "B", "lower"},
	{"wire_bytes_per_packet", "B", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayerDefs are the single-layer figures of a traced run: spans,
// the cluster's own counters, and direct probes. A metric a workload
// does not exercise reads 0 there.
var perLayerDefs = []metricDef{
	{"registry.redirect_us_p50", "us", "lower"},
	{"registry.redirect_us_p99", "us", "lower"},
	{"registry.heartbeat_us_p50", "us", "lower"},
	{"registry.redirects", "count", "higher"},
	{"registry.no_edge", "count", "lower"},
	{"registry.pick_ns", "ns", "lower"},

	{"edge.hit_ttfb_us_p50", "us", "lower"},
	{"edge.hit_ttfb_us_p99", "us", "lower"},
	{"edge.miss_ttfb_ms_p50", "ms", "lower"},
	{"edge.miss_ttfb_ms_p99", "ms", "lower"},
	{"edge.pull_ms_p50", "ms", "lower"},
	{"edge.pull_mb_per_s", "MB/s", "higher"},
	{"edge.hit_share", "ratio", "higher"},
	{"edge.origin_pulls", "count", "lower"},
	{"edge.duplicate_pulls", "count", "lower"},
	{"edge.coalesced_pulls", "count", "lower"},
	{"edge.evictions", "count", "lower"},
	{"edge.admission_rejects", "count", "lower"},
	{"edge.mirror_hit_ns", "ns", "lower"},

	{"edgecache.touch_ns", "ns", "lower"},
	{"edgecache.admit_ns", "ns", "lower"},
	{"edgecache.admit_allocs", "count", "lower"},

	{"origin.fetch_us_p50", "us", "lower"},
	{"streaming.vod_write_ns_per_packet", "ns", "lower"},
	{"streaming.register_asset_ms", "ms", "lower"},
	{"streaming.seek_index_ns", "ns", "lower"},
	{"streaming.publish_ns_per_packet", "ns", "lower"},
	{"streaming.channel_dropped", "count", "lower"},
	{"streaming.channel_dropped_late", "count", "lower"},
	{"streaming.packets_paced", "count", "higher"},
	{"streaming.pacing_late_ms_p99", "ms", "lower"},

	{"asf.read_ns_per_packet", "ns", "lower"},
	{"asf.read_allocs_per_packet", "count", "lower"},
	{"asf.encode_ns_per_packet", "ns", "lower"},
	{"asf.encode_allocs_per_packet", "count", "lower"},
	{"asf.write_shared_ns_per_packet", "ns", "lower"},

	{"client.resolve_us_p50", "us", "lower"},
	{"client.edge_open_us_p50", "us", "lower"},
	{"client.startup_self_us_p50", "us", "lower"},
	{"client.decode_ns_per_packet", "ns", "lower"},
	{"client.startup_ms_p90", "ms", "lower"},
	{"client.startup_ms_p99", "ms", "lower"},
	{"client.fail_share", "ratio", "lower"},
	{"player.play_ns_per_packet", "ns", "lower"},
	{"player.late_ms_p50", "ms", "lower"},
	{"player.late_ms_p99", "ms", "lower"},
	{"player.stall_share", "ratio", "lower"},
	{"player.stalled_sessions", "count", "lower"},
	{"player.broken_frame_share", "ratio", "lower"},
	{"player.broken_frame_share_seek", "ratio", "lower"},

	{"live.lag_us_p50", "us", "lower"},
	{"live.lag_us_p99", "us", "lower"},
	{"live.credit_wait_share", "ratio", "higher"},
	{"live.broadcast_packets_per_s", "1/s", "higher"},

	{"catalog.apply_us_p50", "us", "lower"},
	{"encoder.encode_mb_per_s", "MB/s", "higher"},

	{"vclock.wheel_late_us_p50", "us", "lower"},
	{"vclock.wheel_late_us_p99", "us", "lower"},
	{"metrics.observe_ns", "ns", "lower"},
	{"netsim.rtt_us_p50", "us", "lower"},

	{"harness.gen_lag_ms_p90", "ms", "lower"},
	{"harness.gen_lag_ms_p99", "ms", "lower"},
	{"harness.pause_ms_max", "ms", "lower"},
	{"harness.disturbed_share", "ratio", "lower"},
	{"harness.cpu_share", "ratio", "lower"},
	{"harness.host_factor", "ratio", "lower"},
	{"harness.saturated", "bool", "lower"},
	{"harness.trace_overhead_share", "ratio", "lower"},
	{"trace.startup_coverage", "ratio", "higher"},
}

// value is one measured number with the sample count behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects values by name; the unit comes from the defs.
type metricSet map[string]value

var unitOf = func() map[string]string {
	m := make(map[string]string)
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			m[d.name] = d.unit
		}
	}
	return m
}()

func (s metricSet) set(name string, v float64, samples int) {
	unit, ok := unitOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue") // a bug, caught by the tests
	}
	s[name] = value{Value: v, Unit: unit, Samples: samples}
}

// complete gives every def a value: a metric the workload did not
// exercise reads 0 with no samples.
func (s metricSet) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := s[d.name]; !ok {
			s.set(d.name, 0, 0)
		}
	}
}

// print lists the metrics in catalogue order, by name with unit and
// sample count.
func (s metricSet) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v := s[d.name]
		fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", d.name, v.Value, v.Unit, v.Samples)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd turns an untraced window into the end-to-end metrics.
//
// Time-based metrics are in host-corrected time (see gauge): a rate is
// multiplied, a duration divided, by the host factor of the interval it
// was measured in. A closed-loop window reports the median over its
// one-second slices, each corrected by its own factor; the open loop,
// whose sessions outlast any slice, reports the whole span. Not
// corrected: counts — allocations, bytes, heap — which do not depend on
// the host's speed, and in the open loop the rates and session times,
// which the arrival schedule and the lectures' own clocks fix.
func endToEnd(p *pass, setupS float64, setups int) metricSet {
	p.sorted()
	out := metricSet{}
	n := len(p.startup)
	slices := p.slices
	if slices == nil {
		slices = []sliceStat{{
			seconds: p.elapsed.Seconds(), host: p.gauge.host,
			sessions: float64(n), packets: float64(p.packets), payload: float64(p.payload), wire: float64(p.wire),
			cpuUs:      us(p.end.cpu - p.begin.cpu - p.gauge.cpu),
			mallocs:    float64(p.end.mallocs-p.begin.mallocs) - p.gauge.mallocs,
			allocBytes: float64(p.end.allocBytes-p.begin.allocBytes) - p.gauge.allocBytes,
			startup:    p.startup, session: p.session,
		}}
	}
	over := func(f func(s sliceStat) float64) float64 {
		vals := make([]float64, 0, len(slices))
		for _, s := range slices {
			vals = append(vals, f(s))
		}
		return median(vals)
	}
	// paced is the host factor for figures pinned to the wall clock in
	// the open loop.
	paced := func(s sliceStat) float64 {
		if p.openLoop {
			return 1
		}
		return s.host
	}
	out.set("setup_s", setupS, setups)
	out.set("sessions_per_s", over(func(s sliceStat) float64 { return paced(s) * ratio(s.sessions, s.seconds) }), n)
	out.set("startup_ms_p50", over(func(s sliceStat) float64 { return quantile(s.startup, 0.5) / s.host }), n)
	out.set("session_ms_p50", over(func(s sliceStat) float64 { return quantile(s.session, 0.5) / paced(s) }), n)
	out.set("session_ms_p75", over(func(s sliceStat) float64 { return quantile(s.session, 0.75) / paced(s) }), n)
	out.set("delivered_mb_per_s", over(func(s sliceStat) float64 { return paced(s) * ratio(s.payload/1e6, s.seconds) }), n)
	out.set("packets_per_s", over(func(s sliceStat) float64 { return paced(s) * ratio(s.packets, s.seconds) }), int(p.packets))
	out.set("cpu_us_per_packet", over(func(s sliceStat) float64 { return ratio(s.cpuUs, s.packets) / s.host }), int(p.packets))
	out.set("allocs_per_packet", over(func(s sliceStat) float64 { return ratio(s.mallocs, s.packets) }), int(p.packets))
	out.set("alloc_bytes_per_packet", over(func(s sliceStat) float64 { return ratio(s.allocBytes, s.packets) }), int(p.packets))
	out.set("wire_bytes_per_packet", over(func(s sliceStat) float64 { return ratio(s.wire, s.packets) }), int(p.packets))
	out.set("heap_mb", p.heapMB, 1)
	return out
}

// Saturation thresholds: the paced workload is only a measurement of
// the cluster while the process is mostly idle and mostly undisturbed.
const (
	saturatedCPUShare       = 0.5
	saturatedDisturbedShare = 0.5
)

// perLayer turns a traced window, with the untraced window ref it is
// compared against, into the per-layer metrics that come from spans
// and counters. Probe metrics are added by runProbes.
func perLayer(p, ref *pass) metricSet {
	p.sorted()
	out := metricSet{}
	st := analyze(p.spans)
	el := p.elapsed.Seconds()
	scale := func(v []float64, q, div float64) float64 { return quantile(v, q) / div }
	tailOf := func(v []float64, q, div float64) float64 { return tail(v, q) / div }

	out.set("registry.redirect_us_p50", scale(st.redirectNs, 0.5, 1e3), len(st.redirectNs))
	out.set("registry.redirect_us_p99", tailOf(st.redirectNs, 0.99, 1e3), len(st.redirectNs))
	out.set("registry.heartbeat_us_p50", scale(st.heartbeatNs, 0.5, 1e3), len(st.heartbeatNs))
	out.set("registry.redirects", p.registry.Get("lod_registry_redirects_total"), 1)
	out.set("registry.no_edge", p.registry.Get("lod_registry_no_edge_total"), 1)

	out.set("edge.hit_ttfb_us_p50", scale(st.hitTTFBNs, 0.5, 1e3), len(st.hitTTFBNs))
	out.set("edge.hit_ttfb_us_p99", tailOf(st.hitTTFBNs, 0.99, 1e3), len(st.hitTTFBNs))
	out.set("edge.miss_ttfb_ms_p50", scale(st.missTTFBNs, 0.5, 1e6), len(st.missTTFBNs))
	out.set("edge.miss_ttfb_ms_p99", tailOf(st.missTTFBNs, 0.99, 1e6), len(st.missTTFBNs))
	out.set("edge.pull_ms_p50", scale(st.pullNs, 0.5, 1e6), len(st.pullNs))
	var pullNs float64
	for _, d := range st.pullNs {
		pullNs += d
	}
	out.set("edge.pull_mb_per_s", ratio(float64(st.pullBytes)/1e6, pullNs/1e9), len(st.pullNs))
	hits, misses := p.edges.Get("lod_edge_cache_hits_total"), p.edges.Get("lod_edge_cache_misses_total")
	out.set("edge.hit_share", ratio(hits, hits+misses), int(hits+misses))
	out.set("edge.origin_pulls", float64(st.pulls), 1)
	out.set("edge.duplicate_pulls", float64(st.duplicatePulls), 1)
	out.set("edge.coalesced_pulls", p.edges.Get("lod_edge_coalesced_pulls_total"), 1)
	out.set("edge.evictions", p.edges.Get("lod_edge_cache_evictions_total"), 1)
	out.set("edge.admission_rejects", p.edges.Get("lod_edge_admission_rejects_total"), 1)

	out.set("origin.fetch_us_p50", scale(st.originFetchNs, 0.5, 1e3), len(st.originFetchNs))
	if !p.openLoop { // a paced session's handler and player mostly sleep; time per packet is not work there
		out.set("streaming.vod_write_ns_per_packet", ratio(st.writeNs, st.writePackets), int(st.writePackets))
		out.set("client.decode_ns_per_packet", ratio(st.clientNs, st.clientPackets), int(st.clientPackets))
	}
	out.set("streaming.channel_dropped", float64(p.dropped), 1)
	out.set("streaming.channel_dropped_late", float64(p.droppedLate), 1)
	out.set("streaming.packets_paced", p.edges.Get("lod_packets_paced_total"), 1)
	late, lateN := p.pacingLag.quantile(0.99)
	out.set("streaming.pacing_late_ms_p99", late*1e3, lateN)

	out.set("client.resolve_us_p50", scale(st.resolveNs, 0.5, 1e3), len(st.resolveNs))
	out.set("client.edge_open_us_p50", scale(st.edgeOpenNs, 0.5, 1e3), len(st.edgeOpenNs))
	out.set("client.startup_self_us_p50", scale(st.startupSelfNs, 0.5, 1e3), len(st.startupSelfNs))
	out.set("client.startup_ms_p90", tail(p.startup, 0.9), len(p.startup))
	out.set("client.startup_ms_p99", tail(p.startup, 0.99), len(p.startup))
	out.set("client.fail_share", ratio(float64(p.failed), float64(p.attempted)), p.attempted)

	sort.Float64s(p.lateMs)
	out.set("player.late_ms_p50", quantile(p.lateMs, 0.5), len(p.lateMs))
	out.set("player.late_ms_p99", tail(p.lateMs, 0.99), len(p.lateMs))
	out.set("player.stall_share", ratio(float64(p.stalledUndisturbd), float64(p.undisturbed)), p.undisturbed)
	out.set("player.stalled_sessions", float64(p.stalledSessions), len(p.startup))
	var frames, broken int64
	for _, f := range p.frames {
		frames += f[0]
		broken += f[1]
	}
	out.set("player.broken_frame_share", ratio(float64(broken), float64(frames)), int(frames))
	seek := p.frames["seek"]
	out.set("player.broken_frame_share_seek", ratio(float64(seek[1]), float64(seek[0])), int(seek[0]))

	sort.Float64s(p.lagUs)
	out.set("live.lag_us_p50", quantile(p.lagUs, 0.5), len(p.lagUs))
	out.set("live.lag_us_p99", tail(p.lagUs, 0.99), len(p.lagUs))
	out.set("live.credit_wait_share", ratio(p.creditWait.Seconds(), el), int(p.published))
	out.set("live.broadcast_packets_per_s", ratio(float64(p.published), el), int(p.published))

	sort.Float64s(p.genLagMs)
	out.set("harness.gen_lag_ms_p90", tail(p.genLagMs, 0.9), len(p.genLagMs))
	out.set("harness.gen_lag_ms_p99", tail(p.genLagMs, 0.99), len(p.genLagMs))
	out.set("harness.pause_ms_max", p.pauseMaxMs, 1)
	done := len(p.startup)
	disturbed := 0.0
	if p.openLoop {
		disturbed = ratio(float64(done-p.undisturbed), float64(done))
	}
	out.set("harness.disturbed_share", disturbed, done)
	out.set("harness.host_factor", p.gauge.host, p.gauge.runs)
	cpuShare := ratio((p.end.cpu - p.begin.cpu - p.gauge.cpu).Seconds(), el)
	out.set("harness.cpu_share", cpuShare, 1)
	saturated := 0.0
	if p.openLoop && (cpuShare > saturatedCPUShare || disturbed > saturatedDisturbedShare) {
		saturated = 1
	}
	out.set("harness.saturated", saturated, 1)

	// Tracing overhead: how much throughput the traced window lost to
	// the untraced one; in the open loop, where throughput is the offered
	// load, how much more CPU a packet cost.
	overhead := 1 - ratio(ratio(float64(p.packets), el), ratio(float64(ref.packets), ref.elapsed.Seconds()))
	if p.openLoop {
		overhead = ratio(ratio(us(p.end.cpu-p.begin.cpu), float64(p.packets)),
			ratio(us(ref.end.cpu-ref.begin.cpu), float64(ref.packets))) - 1
	}
	out.set("harness.trace_overhead_share", overhead, 1)
	out.set("trace.startup_coverage", ratio(quantile(st.accountedNs, 0.5), quantile(st.startupNs, 0.5)), len(st.accountedNs))
	return out
}
