package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
)

func TestQuantile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(vals, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// A percentile is reported only with ten samples beyond it.
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	if got := tail(vals, 0.99); got != 0 {
		t.Errorf("p99 of 100 samples = %v, want 0: only one sample lies beyond it", got)
	}
	if got := tail(vals, 0.9); got != 90 {
		t.Errorf("p90 of 100 samples = %v, want 90", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := histogram{bounds: []float64{0.001, 0.01, 0.1}, counts: []float64{50, 99, 100}}
	base := histogram{bounds: h.bounds, counts: []float64{10, 10, 10}}
	d := h.minus(base)
	if got, n := d.quantile(0.5); got != 0.01 || n != 90 {
		t.Errorf("p50 = %v of %d, want 0.01 of 90", got, n)
	}
	if got, _ := d.quantile(0.99); got != 0.1 {
		t.Errorf("p99 = %v, want 0.1", got)
	}
}

// collect draws n ops from a generator.
func collect(next func() client.Spec, n int) []client.Spec {
	out := make([]client.Spec, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestOpsFollowSeed(t *testing.T) {
	a, b, c := collect(warmOps(7, 0), 200), collect(warmOps(7, 0), 200), collect(warmOps(8, 0), 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("vod_warm: same seed, different ops")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("vod_warm: different seeds, same ops")
	}
	if reflect.DeepEqual(a, collect(warmOps(7, 1), 200)) {
		t.Error("vod_warm: two viewers of one seed draw the same ops")
	}
	seeks := 0
	for _, op := range a {
		if op.Start > 0 {
			seeks++
		}
	}
	if seeks < 40 || seeks > 80 {
		t.Errorf("vod_warm: %d seeks in 200 ops, want about 30%%", seeks)
	}

	// vod_cold: every viewer walks its own lectures, all of them, in a cycle.
	seen := map[string]int{}
	const viewers = 4
	for v := 0; v < viewers; v++ {
		for _, op := range collect(coldOps(7, v, viewers), 2*coldLectures/viewers) {
			seen[op.Name]++
		}
	}
	if len(seen) != coldLectures {
		t.Errorf("vod_cold: %d distinct lectures walked, want %d", len(seen), coldLectures)
	}
	for name, n := range seen {
		if n != 2 {
			t.Errorf("vod_cold: %s demanded %d times in two cycles", name, n)
		}
	}

	x, y, z := pacedArrivals(7, 10*time.Second, pacedFull), pacedArrivals(7, 10*time.Second, pacedFull), pacedArrivals(8, 10*time.Second, pacedFull)
	if !reflect.DeepEqual(x, y) {
		t.Error("paced_class: same seed, different arrivals")
	}
	if reflect.DeepEqual(x, z) {
		t.Error("paced_class: different seeds, same arrivals")
	}
	if len(x) != 100 {
		t.Fatalf("paced_class: %d arrivals in 10 s, want 100", len(x))
	}
	kinds := map[string]int{}
	for i, a := range x {
		if i > 0 && a.at < x[i-1].at {
			t.Fatal("paced_class: arrivals out of order")
		}
		if a.at < 0 || a.at >= 10*time.Second {
			t.Fatalf("paced_class: arrival at %v outside the window", a.at)
		}
		kinds[kindOf(a.spec)]++
	}
	if want := map[string]int{"vod": 50, "seek": 15, "group": 20, "live": 15}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("paced_class mix = %v, want %v", kinds, want)
	}
}

func TestCreditsHoldThePublisher(t *testing.T) {
	c := newCredits(2)
	stop := make(chan struct{})
	defer close(stop)
	if c.mayPublish() {
		t.Fatal("publishing with no viewer present")
	}
	c.enter(0)
	c.enter(1)
	for k := int64(0); k < creditWindow; k++ {
		if !c.mayPublish() {
			t.Fatalf("blocked at packet %d, inside the window", k)
		}
		c.published.Store(k + 1)
	}
	if c.mayPublish() {
		t.Fatal("publisher ran a full window ahead of both viewers")
	}
	released := make(chan time.Duration)
	go func() {
		waited, _ := c.acquire(stop)
		released <- waited
	}()
	for seq := int64(0); seq < creditWindow; seq++ {
		c.ack(0, seq) // viewer 0 catches up; viewer 1 still holds the publisher
	}
	select {
	case <-released:
		t.Fatal("publisher released while one viewer was a full window behind")
	case <-time.After(20 * time.Millisecond):
	}
	c.leave(1) // a viewer that left no longer counts
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("publisher still blocked after the slow viewer left")
	}
}

// TestGaugeAccountsForItself checks that what the gauge reports as its
// own CPU and allocations is what it costs an otherwise idle process,
// so that subtracting it leaves the program's figures.
func TestGaugeAccountsForItself(t *testing.T) {
	g := startGauge()
	defer g.Stop()
	time.Sleep(50 * time.Millisecond) // past the gauge's start-up allocations
	before := readUsage()
	time.Sleep(400 * time.Millisecond)
	after := readUsage()
	own := g.between(before.at, after.at)
	if own.runs < 20 {
		t.Fatalf("%d kernel runs in 400 ms, want about 40", own.runs)
	}
	if own.host < 0.5 || own.host > 10 {
		t.Errorf("host factor %v is implausible: the nominal kernel time is off for this machine class", own.host)
	}
	// A kernel run may straddle either end of the interval.
	slack := 2.0 * gaugePackets
	if rest := float64(after.mallocs-before.mallocs) - own.mallocs; rest < -slack || rest > slack+200 {
		t.Errorf("%.0f mallocs left after subtracting the gauge's %.0f, want about 0", rest, own.mallocs)
	}
	if rest := float64(after.allocBytes-before.allocBytes) - own.allocBytes; rest < -slack*gaugePacketClass || rest > slack*gaugePacketClass+64<<10 {
		t.Errorf("%.0f bytes allocated beyond the gauge's %.0f, want about 0", rest, own.allocBytes)
	}
	if cpu := after.cpu - before.cpu; own.cpu > cpu+5*time.Millisecond || own.cpu < cpu/4 {
		t.Errorf("gauge claims %v of the process's %v CPU", own.cpu, cpu)
	}
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

const specPath = "../BENCHMARK.json"

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesCatalogue pins BENCHMARK.json to the names, units and
// directions the program emits.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q is outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s: %s bound presence wrong", kind, g.Name)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEndDefs, true)
	check("per_layer", sp.PerLayer, perLayerDefs, false)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, sp.Workloads[i].Name, w.name)
		}
		if n := len(sp.Workloads[i].Why); n == 0 || n > 200 || strings.Contains(sp.Workloads[i].Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, n)
		}
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func assertMetrics(t *testing.T, workload, kind string, got metricSet, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			t.Errorf("%s: %s metric %s not emitted", workload, kind, d.name)
		} else if v.Unit != d.unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, d.name, v.Unit, d.unit)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d %s metrics emitted, catalogue has %d: %v", workload, len(got), kind, len(defs), names(defs))
	}
}

// TestQuickRun drives all four workloads end to end with 300 ms
// windows: every operation verified, every guard holding, every metric
// of BENCHMARK.json emitted and nothing else, and a record that
// compares as "same" with itself.
func TestQuickRun(t *testing.T) {
	ctx := context.Background()
	viewers, subscribers := loadSizes(2)
	g := startGauge()
	defer g.Stop()
	e := env{seed: 11, scratch: t.TempDir(), viewers: viewers, subscribers: subscribers, quick: true, gauge: g}
	const window = quickWindow
	probes := metricSet{}
	if err := runProbes(ctx, e.seed, e.scratch, probes); err != nil {
		t.Fatal(err)
	}
	rec := record{Schema: recordSchema, Seed: e.seed, Workloads: map[string]result{}}
	for _, w := range workloads {
		res, p, err := untracedRun(ctx, w, e, window, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := checkGuards(w.name, p); err != nil {
			t.Error(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, p.firstErr)
		}
		assertMetrics(t, w.name, "end-to-end", res.EndToEnd, endToEndDefs)
		for _, d := range endToEndDefs {
			if res.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, res.EndToEnd[d.name].Value)
			}
		}
		traced, err := tracedRun(ctx, w, e, window, p, probes, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: %d of %d failed", w.name, traced.Failed, traced.Attempted)
		}
		assertMetrics(t, w.name, "per-layer", traced.PerLayer, perLayerDefs)
		if traced.PerLayer["client.resolve_us_p50"].Samples == 0 {
			t.Errorf("%s: the traced pass recorded no client spans", w.name)
		}
		res.PerLayer = traced.PerLayer
		rec.Workloads[w.name] = res
	}

	path := filepath.Join(t.TempDir(), "record.json")
	if err := writeRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := compareMain([]string{"-spec", specPath, path, path}, &out, &errOut); code != 0 {
		t.Fatalf("compare of a record with itself exits %d: %s%s", code, out.String(), errOut.String())
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")[1:]
	if want := len(workloads) * (len(endToEndDefs) + 1); len(rows) != want {
		t.Errorf("compare printed %d rows, want %d (metric × workload, plus fail_share)", len(rows), want)
	}
	for _, row := range rows {
		if !strings.HasSuffix(strings.TrimSpace(row), verdictSame) {
			t.Errorf("compare of a record with itself: %s", row)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	sum := func(vals ...float64) summary { return summarize(vals) }
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"within bound", sum(100, 101, 99), sum(104, 105, 103), "lower", verdictSame},
		{"slower", sum(100, 101, 99), sum(120, 121, 119), "lower", verdictWorse},
		{"faster", sum(100, 101, 99), sum(80, 81, 79), "lower", verdictBetter},
		{"throughput fell", sum(100, 101, 99), sum(80, 81, 79), "higher", verdictWorse},
		{"throughput rose", sum(100, 101, 99), sum(120, 121, 119), "higher", verdictBetter},
		{"too noisy to tell", sum(100, 130, 70, 100), sum(95, 125, 75, 100), "lower", verdictUnresolved},
		{"noisy but every run better", sum(100, 130, 115, 140), sum(60, 50, 65, 55), "lower", verdictBetter},
	} {
		if got, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	// A worse record makes compare exit non-zero; so does a higher fail share.
	dir := t.TempDir()
	write := func(name string, startup float64, failed int) string {
		rec := record{Schema: recordSchema, Workloads: map[string]result{"vod_warm": {
			Correct: failed == 0, Attempted: 100, Failed: failed,
			EndToEnd: metricSet{"startup_ms_p50": {Value: startup, Unit: "ms"}},
		}}}
		path := filepath.Join(dir, name)
		if err := writeRecord(path, rec); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow, failing := write("a.json", 1, 0), write("b.json", 2, 0), write("c.json", 1, 3)
	var sink bytes.Buffer
	if code := compareMain([]string{"-spec", specPath, base, slow}, &sink, &sink); code != 1 {
		t.Errorf("compare with a 2× slower startup exits %d, want 1", code)
	}
	if code := compareMain([]string{"-spec", specPath, base, failing}, &sink, &sink); code != 1 {
		t.Errorf("compare with failed operations exits %d, want 1", code)
	}
	if code := compareMain([]string{"-spec", specPath, slow, base}, &sink, &sink); code != 0 {
		t.Errorf("compare with a faster startup exits %d, want 0", code)
	}
}
