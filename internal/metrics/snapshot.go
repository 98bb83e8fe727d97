package metrics

// Snapshot is a point-in-time reading of every series in a Registry,
// keyed by name{labels} exactly as /status renders them (histograms
// contribute their _count and _sum). Snapshots are plain values: take
// one before and one after a workload and Delta them to isolate what
// the workload did.
type Snapshot map[string]float64

// Snapshot captures the current value of every series. It is
// equivalent to Status; the named return type carries the diffing
// helpers.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot(r.Status())
}

// Delta returns s minus base, series by series. Series missing from
// base count from zero (they were created during the window); series
// present only in base are omitted (a Registry never drops series, so
// that only happens when diffing unrelated registries). Counter and
// histogram deltas are the activity within the window; gauge deltas
// are net change, which can be negative.
func (s Snapshot) Delta(base Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// Get returns the value of one series, or 0 when the series does not
// exist — convenient for series that may legitimately never have been
// created (e.g. an eviction counter on an unbounded cache).
func (s Snapshot) Get(key string) float64 { return s[key] }

// Sum adds the values of every series whose key starts with prefix —
// the way to fold a labeled family (for example every
// lod_sessions_started_total{kind=...} series) into one number.
func (s Snapshot) Sum(prefix string) float64 {
	var total float64
	for k, v := range s {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}
