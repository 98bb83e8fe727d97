package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("hits_total", "h", Label{"endpoint", "vod"})
	b := reg.Counter("hits_total", "h", Label{"endpoint", "vod"})
	if a != b {
		t.Fatal("same name+labels produced distinct counters")
	}
	other := reg.Counter("hits_total", "h", Label{"endpoint", "live"})
	if a == other {
		t.Fatal("distinct labels share one counter")
	}
	a.Inc()
	if b.Value() != 1 || other.Value() != 0 {
		t.Fatalf("values: same=%d other=%d", b.Value(), other.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("reusing a counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestInvalidNamePanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	reg.Counter("bad name", "nope")
}

func TestHistogramObservations(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 56.05; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("requests_total", "Requests served.", Label{"endpoint", "vod"}).Add(3)
	reg.Gauge("active", "Active sessions.").Set(2)
	reg.GaugeFunc("age_seconds", "Heartbeat age.", func() float64 { return 1.5 }, Label{"node", `e"1`})

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range []string{
		"# HELP requests_total Requests served.",
		"# TYPE requests_total counter",
		`requests_total{endpoint="vod"} 3`,
		"# TYPE active gauge",
		"active 2",
		"# TYPE age_seconds gauge",
		`age_seconds{node="e\"1"} 1.5`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestGaugeFuncReplace(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("v", "", func() float64 { return 1 })
	reg.GaugeFunc("v", "", func() float64 { return 2 })
	if got := reg.Status()["v"]; got != 2 {
		t.Fatalf("gauge func = %v, want the replacement value 2", got)
	}
}

func TestStatusAndHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "", Label{"endpoint", "vod"}).Add(7)
	reg.Histogram("lat_seconds", "", []float64{1}).Observe(0.5)

	mux := http.NewServeMux()
	reg.Expose(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status[`hits_total{endpoint="vod"}`] != 7 {
		t.Fatalf("status = %v", status)
	}
	if status["lat_seconds_count"] != 1 || status["lat_seconds_sum"] != 0.5 {
		t.Fatalf("status histogram entries = %v", status)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `hits_total{endpoint="vod"} 7`) {
		t.Fatalf("metrics body:\n%s", body)
	}
}

// TestConcurrentUpdates hammers every instrument kind from many
// goroutines while scraping, so `go test -race` proves the lock-free
// update paths. The final counts must also be exact — no lost updates.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Instruments are fetched inside the goroutine: get-or-create
			// must be safe under contention too.
			c := reg.Counter("ops_total", "")
			g := reg.Gauge("depth", "")
			h := reg.Histogram("lat_seconds", "", []float64{0.25, 0.75})
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				g.Dec()
				h.Observe(0.5)
			}
		}()
	}
	// Concurrent scrapes of both renderings.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = reg.WritePrometheus(io.Discard)
				_ = reg.Status()
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("ops_total", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("depth", "").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	h := reg.Histogram("lat_seconds", "", nil)
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}
