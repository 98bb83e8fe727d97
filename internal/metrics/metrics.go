// Package metrics is the observability layer of the Lecture-on-Demand
// system: a dependency-free registry of atomically updated counters,
// gauges, and histograms, exposed in Prometheus text format at
// GET /v1/metrics and as a flat JSON snapshot at GET /v1/status.
//
// Every serving tier owns one Registry — streaming.Server and
// relay.Registry each create theirs, relay.Edge shares its server's —
// and instruments are created once with get-or-create semantics:
//
//	reg := metrics.NewRegistry()
//	hits := reg.Counter("lod_edge_cache_hits_total",
//	    "Mirrored-asset demands served from the edge cache.")
//	hits.Inc()
//
// Series are distinguished by constant labels supplied at creation
// (e.g. one lod_request_seconds histogram per endpoint). Updates are
// lock-free (a single atomic op for counters and gauges, one per bucket
// plus a CAS loop for histogram sums), so instruments may be hammered
// from every session goroutine without contending on the registry.
//
// The package deliberately implements the small subset of the
// Prometheus exposition format the system needs; it is not a
// client_golang replacement.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant name=value pair attached to a series at
// creation time.
type Label struct {
	Key   string
	Value string
}

// DefBuckets are the default histogram bucket upper bounds in seconds,
// spanning sub-millisecond handler latencies up to minutes-long
// streaming sessions.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 2.5, 10, 30, 60, 300}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	gaugeFuncKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// Registry holds a process's metric families and renders them for the
// /v1/metrics and /v1/status endpoints. The zero value is not usable; create
// with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// family groups every series sharing one metric name (and therefore one
// type and help string).
type family struct {
	name    string
	help    string
	kind    kind
	buckets []float64 // histogram families only

	series map[string]*series
	order  []string
}

// series is one labeled instrument within a family.
type series struct {
	labels []Label

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() float64
	histogram *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// lookup returns the family/series for name+labels, creating either as
// needed. It panics on an invalid name or a name reused with a
// different kind — both programmer errors caught on first scrape or
// first update in any test.
func (r *Registry) lookup(name, help string, k kind, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookupLocked(name, help, k, buckets, labels)
}

// lookupLocked is lookup with r.mu already held.
func (r *Registry) lookupLocked(name, help string, k kind, buckets []float64, labels []Label) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	key := labelKey(labels)
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, k))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch k {
		case counterKind:
			s.counter = &Counter{}
		case gaugeKind:
			s.gauge = &Gauge{}
		case histogramKind:
			s.histogram = newHistogram(f.buckets)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the monotonically increasing counter for name+labels,
// creating it on first use. Reusing a name with a different instrument
// kind panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, counterKind, nil, labels).counter
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, gaugeKind, nil, labels).gauge
}

// GaugeFunc registers fn as the value of the gauge series name+labels,
// evaluated at scrape time. Re-registering the same series replaces the
// function (so a component can refresh its closure after a restart).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	// One critical section: a scrape must never see the series before
	// its function is set.
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookupLocked(name, help, gaugeFuncKind, nil, labels).gaugeFn = fn
}

// Histogram returns the histogram for name+labels, creating it on first
// use with the given bucket upper bounds (nil means DefBuckets). The
// bounds of the first creation win for the whole family.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return r.lookup(name, help, histogramKind, buckets, labels).histogram
}

// Counter is a monotonically increasing value, updated with one atomic
// add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative n is ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down, updated atomically.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets, tracking the total
// sum and count. Observations are lock-free.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// atomicFloat is a float64 updated with a CAS loop over its bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// labelKey renders labels into the canonical {k="v",...} form used both
// as the series map key and in the exposition output. Labels keep their
// creation order; an empty set renders as "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }
