// Command benchmark is the repository's benchmark of record. It builds
// an in-process cluster — origin, registry on a durable catalog store,
// two edges with heartbeats — on netsim.MemNet from the public
// constructors, drives it only through the public client stack, and
// measures four named workloads: vod_warm, vod_cold, live_relay and
// paced_class. See README.md for the glossary and the rationale.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//	    one workload, one kind of run: --trace 0 prints the end-to-end
//	    metrics of an untraced window, --trace 1 the per-layer metrics of
//	    a traced one. The last line of standard output is one JSON object.
//	benchmark --seed N [--seconds S] [--out record.json]
//	    all four workloads, untraced then traced, as one JSON record.
//	benchmark compare A B
//	    compares two records, or two directories of records, under the
//	    bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupRounds is how many times an untraced run sets the workload up;
// setup_s is the median, the last set-up is the one measured.
const setupRounds = 5

// tracedShare is the part of --seconds a traced window runs for; the
// rest goes to the untraced window it is compared with.
const tracedShare = 0.5

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceOut string
	scratch  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (vod_warm, vod_cold, live_relay, paced_class); empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed for lecture content, seek offsets, kind mix and arrival times")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of one measured window")
	flag.IntVar(&o.trace, "trace", 0, "with --workload: 0 = untraced window, end-to-end metrics; 1 = traced window, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the JSON record here")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced window's spans here, one JSON object per line")
	flag.StringVar(&o.scratch, "scratch", filepath.Join(".bench_build", "tmp"), "directory for the registry's catalog state")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is one workload's outcome, one entry of a record. A
// --workload run fills only the metric set its --trace asks for.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// record is what a run writes with --out.
type record struct {
	Schema    string            `json:"schema"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Transport string            `json:"transport"`
	NumCPU    int               `json:"nproc"`
	Viewers   int               `json:"viewers"`
	GoVersion string            `json:"go"`
	Workloads map[string]result `json:"workloads"`
}

const recordSchema = "lod-benchmark/1"

func run(ctx context.Context, o options) error {
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return err
	}
	viewers, subscribers := loadSizes(runtime.NumCPU())
	rec := record{Schema: recordSchema, Seed: o.seed, Seconds: o.seconds, Transport: "memnet",
		NumCPU: runtime.NumCPU(), Viewers: viewers, GoVersion: runtime.Version(), Workloads: map[string]result{}}
	window := time.Duration(o.seconds * float64(time.Second))
	g := startGauge()
	defer g.Stop()
	base := env{seed: o.seed, scratch: o.scratch, viewers: viewers, subscribers: subscribers, gauge: g}

	// A --workload run measures one workload one way; without it every
	// workload is measured both ways: the untraced window gives the
	// end-to-end numbers, a shorter traced window of the same workload
	// the per-layer ones.
	todo := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		todo = []workloadDef{w}
	}
	untraced, traced := o.workload == "" || o.trace == 0, o.workload == "" || o.trace != 0
	probes := metricSet{}
	if traced {
		if err := runProbes(ctx, o.seed, o.scratch, probes); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
	}
	for _, w := range todo {
		var res result
		var ref *pass
		if untraced {
			var err error
			if res, ref, err = untracedRun(ctx, w, base, window, setupRounds); err == nil {
				err = checkGuards(w.name, ref)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		if traced {
			traceOut := o.traceOut
			if traceOut != "" && o.workload == "" {
				traceOut += "." + w.name
			}
			t, err := tracedRun(ctx, w, base, window, ref, probes, traceOut)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if untraced {
				t.Correct = t.Correct && res.Correct
				t.Attempted, t.Failed, t.EndToEnd = res.Attempted, res.Failed, res.EndToEnd
			}
			res = t
		}
		rec.Workloads[w.name] = res
	}
	if err := writeRecord(o.out, rec); err != nil {
		return err
	}
	if o.workload == "" {
		return nil
	}
	// The result line of a --workload run: the last line of standard
	// output, one JSON object, metrics as value and unit only.
	res := rec.Workloads[o.workload]
	set := res.EndToEnd
	if traced {
		set = res.PerLayer
	}
	type lineValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]lineValue, len(set))
	for name, v := range set {
		metrics[name] = lineValue{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]lineValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// loadSizes sizes the closed loops from the core count. Stored-lecture
// viewers outnumber the cores four to one: with as few viewers as
// cores, cores fall idle between a viewer's requests, waking an idle
// core of a virtual machine is slow and erratic, and the run-to-run
// spread of vod_warm doubles.
// Live subscribers stay few, so the relay's per-packet cost is not
// diluted by fan-out.
func loadSizes(nproc int) (viewers, subscribers int) {
	viewers, subscribers = 4*nproc, nproc
	if viewers > 16 {
		viewers = 16
	}
	if subscribers > 4 {
		subscribers = 4
	}
	return viewers, subscribers
}

func writeRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// untracedRun sets the workload up rounds times on clusters without any
// tracing wrapper, measures one window on the last, and reports the
// end-to-end metrics.
func untracedRun(ctx context.Context, w workloadDef, e env, window time.Duration, rounds int) (result, *pass, error) {
	e.rec = nil
	var b bench
	setups := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(ctx, e); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		// Set-up time is host-corrected like every other duration.
		t1 := time.Now()
		setups = append(setups, t1.Sub(t0).Seconds()/e.gauge.between(t0, t1).host)
	}
	p, err := b.run(ctx, window)
	b.close()
	if err != nil {
		return result{}, nil, err
	}
	res := result{Correct: p.failed == 0 && p.attempted > 0, Attempted: p.attempted, Failed: p.failed,
		EndToEnd: endToEnd(p, median(setups), len(setups))}
	fmt.Printf("%s  seed %d  untraced window %.2fs  attempted %d  failed %d\n", w.name, e.seed, p.elapsed.Seconds(), p.attempted, p.failed)
	res.EndToEnd.print(os.Stdout, endToEndDefs)
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", w.name, p.firstErr)
	}
	return res, p, nil
}

// tracedRun measures a window on a cluster whose handlers and
// transports are wrapped with span recorders, compares it with an
// untraced window (ref; measured here when nil), adds the direct
// probes' figures, and reports the per-layer metrics.
func tracedRun(ctx context.Context, w workloadDef, e env, window time.Duration, ref *pass, probes metricSet, traceOut string) (result, error) {
	measure := func(rec *recorder, window time.Duration) (*pass, error) {
		e.rec = rec
		b, err := w.setup(ctx, e)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		defer b.close()
		return b.run(ctx, window)
	}
	tracedWindow := time.Duration(float64(window) * tracedShare)
	if ref == nil {
		var err error
		if ref, err = measure(nil, window-tracedWindow); err != nil {
			return result{}, err
		}
	}
	p, err := measure(newRecorder(), tracedWindow)
	if err != nil {
		return result{}, err
	}
	if err := checkGuards(w.name, p); err != nil {
		return result{}, err
	}
	layers := perLayer(p, ref)
	for name, v := range probes {
		layers[name] = v
	}
	layers.complete(perLayerDefs)
	if traceOut != "" {
		if err := writeSpans(traceOut, p.spans); err != nil {
			return result{}, err
		}
	}
	fmt.Printf("%s  seed %d  traced window %.2fs  attempted %d  failed %d  spans %d\n",
		w.name, e.seed, p.elapsed.Seconds(), p.attempted, p.failed, len(p.spans))
	layers.print(os.Stdout, perLayerDefs)
	for kind, f := range p.frames {
		fmt.Printf("  broken frames, %-5s sessions: %d of %d\n", kind, f[1], f[0])
	}
	if p.openLoop {
		fmt.Printf("  stalled sessions: %d of %d (%d of %d undisturbed)\n",
			p.stalledSessions, len(p.startup), p.stalledUndisturbd, p.undisturbed)
	}
	if p.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failed op: %v\n", w.name, p.firstErr)
	}
	return result{Correct: p.failed == 0 && p.attempted > 0, Attempted: p.attempted, Failed: p.failed, PerLayer: layers}, nil
}

// errGuard marks a run whose workload was not the one its name
// promises; such a run exits non-zero.
const errGuard = "workload validity guard"

// Guard thresholds.
const (
	warmMinHitShare      = 0.99
	coldMaxHitShare      = 0.02
	coldResidentLectures = 2 * 4 // what two 3 MB caches can hold of 850 KB lectures, rounded up
	liveMinCreditWait    = 0.5   // the publisher must idle more than it works
	// A host pause delays the one or two arrivals that fall into it; a
	// generator that cannot keep its schedule delays them all. The guard
	// is on the 90th percentile so that it tells the two apart.
	pacedMaxGenLagP90 = 20.0
)

// checkGuards reports whether the window was a valid instance of its
// workload: warm really hit, cold really missed, the live chain dropped
// nothing and was the limit, the open-loop generator kept its schedule.
func checkGuards(name string, p *pass) error {
	hits, misses := p.edges.Get("lod_edge_cache_hits_total"), p.edges.Get("lod_edge_cache_misses_total")
	hitShare := ratio(hits, hits+misses)
	switch name {
	case "vod_warm":
		if hitShare < warmMinHitShare {
			return fmt.Errorf("%s: %s edge hit share %.3f < %.2f", errGuard, name, hitShare, warmMinHitShare)
		}
	case "vod_cold":
		// The few lectures the verification pass left in the caches may
		// each hit once.
		if hitShare > coldMaxHitShare && hits > coldResidentLectures {
			return fmt.Errorf("%s: %s edge hit share %.3f > %.2f", errGuard, name, hitShare, coldMaxHitShare)
		}
	case "live_relay":
		if p.dropped != 0 {
			return fmt.Errorf("%s: %s dropped %d packets", errGuard, name, p.dropped)
		}
		if share := ratio(p.creditWait.Seconds(), p.elapsed.Seconds()); share <= liveMinCreditWait {
			return fmt.Errorf("%s: %s publisher waited for credits only %.2f of the window: it, not the relay chain, was the limit",
				errGuard, name, share)
		}
	case "paced_class":
		lag := append([]float64(nil), p.genLagMs...)
		sort.Float64s(lag)
		if q := quantile(lag, 0.9); q >= pacedMaxGenLagP90 {
			return fmt.Errorf("%s: %s arrivals dispatched %.1f ms late at the 90th percentile", errGuard, name, q)
		}
	}
	return nil
}
