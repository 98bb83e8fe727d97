package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and the bound by which its median may worsen.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one metric × workload row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// side is one set of runs: per workload and metric the values of every
// record, plus the failure counts.
type side struct {
	values    map[string]map[string][]float64
	attempted map[string]int
	failed    map[string]int
}

// loadSide reads one record, or every *.json record of a directory.
func loadSide(path string) (*side, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	s := &side{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, rec.Schema, recordSchema)
		}
		for name, res := range rec.Workloads {
			if s.values[name] == nil {
				s.values[name] = map[string][]float64{}
			}
			for metric, v := range res.EndToEnd {
				s.values[name][metric] = append(s.values[name][metric], v.Value)
			}
			s.attempted[name] += res.Attempted
			s.failed[name] += res.Failed
		}
	}
	return s, nil
}

// summary is the median and quartiles of one side of a row.
type summary struct {
	median, q1, q3 float64
	min, max       float64
	n              int
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	out := summary{median: median(s), n: len(s)}
	if len(s) == 0 {
		return out
	}
	out.min, out.max = s[0], s[len(s)-1]
	out.q1, out.q3 = out.median, out.median
	if len(s) >= 2 {
		out.q1, out.q3 = quartiles(s)
	}
	return out
}

// quartiles returns the first and third quartile of sorted the way
// Python's statistics.quantiles(values, n=4) does (exclusive method).
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p * float64(len(sorted)+1)
		lo := int(pos)
		if lo < 1 {
			return sorted[0]
		}
		if lo >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[lo-1] + (pos-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, s.median) }

// judge compares B against A for one metric. worsening is how much
// worse B's median is than A's, as a share of A's (negative: better).
func judge(a, b summary, better string, bound float64) (verdict string, worsening float64) {
	worsening = ratio(b.median-a.median, a.median)
	allBetter := b.max < a.min
	if better == "higher" {
		worsening = -worsening
		allBetter = b.min > a.max
	}
	wide := a.spread() > bound || b.spread() > bound
	switch {
	case worsening > bound:
		return verdictWorse, worsening
	case wide && allBetter && a.n > 1 && b.n > 1:
		return verdictBetter, worsening
	case wide:
		return verdictUnresolved, worsening
	case worsening < -bound:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}

// compareMain implements `benchmark compare A B`. It exits non-zero
// when any end-to-end metric × workload is worse in B than in A by more
// than the metric's bound, or B fails a larger share of its operations.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] A B   (A, B: a record or a directory of records)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return fail(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fail(fmt.Errorf("%s: %w", *specPath, err))
	}
	a, err := loadSide(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadSide(fs.Arg(1))
	if err != nil {
		return fail(err)
	}

	bad := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tworse by\tbound\tverdict")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			av, bv := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := summarize(av), summarize(bv)
			verdict, worsening := judge(sa, sb, m.Better, m.Bound)
			if verdict == verdictWorse {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%+.1f%%\t%.0f%%\t%s\n",
				w.Name, m.Name, m.Unit, sa.median, sa.q1, sa.q3, sa.n, sb.median, sb.q1, sb.q3, sb.n,
				100*worsening, 100*m.Bound, verdict)
		}
		fa, fb := ratio(float64(a.failed[w.Name]), float64(a.attempted[w.Name])), ratio(float64(b.failed[w.Name]), float64(b.attempted[w.Name]))
		verdict := verdictSame
		if fb > fa {
			verdict = verdictWorse
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_share\tratio\t%.4g\t%.4g\t\t+0\t%s\n", w.Name, fa, fb, verdict)
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark compare: %d row(s) worse\n", bad)
		return 1
	}
	return 0
}
