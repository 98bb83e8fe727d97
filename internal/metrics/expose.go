package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/proto"
)

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			bw.WriteString("# HELP " + f.name + " " + strings.ReplaceAll(f.help, "\n", " ") + "\n")
		}
		bw.WriteString("# TYPE " + f.name + " " + f.kind.String() + "\n")
		for _, key := range f.order {
			s := f.series[key]
			switch f.kind {
			case counterKind:
				writeLine(bw, f.name, key, formatInt(s.counter.Value()))
			case gaugeKind:
				writeLine(bw, f.name, key, formatInt(s.gauge.Value()))
			case gaugeFuncKind:
				writeLine(bw, f.name, key, formatFloat(s.gaugeFn()))
			case histogramKind:
				writeHistogram(bw, f.name, s)
			}
		}
	}
	return bw.Flush()
}

func writeLine(w *bufio.Writer, name, labelKey, value string) {
	w.WriteString(name)
	w.WriteString(labelKey)
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative _bucket series plus _sum and
// _count, merging the le label into the series' own labels.
func writeHistogram(w *bufio.Writer, name string, s *series) {
	h := s.histogram
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		writeLine(w, name+"_bucket", mergeLE(s.labels, formatFloat(bound)), formatInt(cum))
	}
	cum += h.counts[len(h.bounds)].Load()
	writeLine(w, name+"_bucket", mergeLE(s.labels, "+Inf"), formatInt(cum))
	writeLine(w, name+"_sum", labelKey(s.labels), formatFloat(h.Sum()))
	writeLine(w, name+"_count", labelKey(s.labels), formatInt(h.Count()))
}

func mergeLE(labels []Label, le string) string {
	merged := make([]Label, 0, len(labels)+1)
	merged = append(merged, labels...)
	merged = append(merged, Label{"le", le})
	return labelKey(merged)
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Status returns a flat snapshot of every series, keyed by
// name{labels}. Histograms contribute their _count and _sum; bucket
// detail stays on /v1/metrics.
func (r *Registry) Status() map[string]float64 {
	out := make(map[string]float64)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		for _, key := range f.order {
			s := f.series[key]
			switch f.kind {
			case counterKind:
				out[f.name+key] = float64(s.counter.Value())
			case gaugeKind:
				out[f.name+key] = float64(s.gauge.Value())
			case gaugeFuncKind:
				out[f.name+key] = s.gaugeFn()
			case histogramKind:
				out[f.name+"_count"+key] = float64(s.histogram.Count())
				out[f.name+"_sum"+key] = s.histogram.Sum()
			}
		}
	}
	return out
}

// ServeHTTP serves the Prometheus text exposition, so a Registry is the
// handler Expose mounts at /v1/metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// StatusHandler returns the JSON snapshot endpoint for GET /v1/status.
func (r *Registry) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Status()); err != nil {
			proto.WriteError(w, http.StatusInternalServerError, err.Error())
		}
	})
}

// Expose mounts GET /v1/metrics (Prometheus text) and GET /v1/status
// (JSON snapshot) on mux (proto.PathMetrics/PathStatus, through
// proto.Handle) — the two observability endpoints every role's Handler
// serves.
func (r *Registry) Expose(mux *http.ServeMux) {
	proto.Handle(mux, proto.PathMetrics, r)
	proto.Handle(mux, proto.PathStatus, r.StatusHandler())
}
