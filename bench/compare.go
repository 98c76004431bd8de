// -repeat and -compare: the noise floor of the benchmark, and the
// verdict of one saved report against another under the bounds that
// BENCHMARK.json fixes.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// repeatDoc is what -repeat prints: every set it ran.
type repeatDoc struct {
	Runs []*fullReport `json:"runs"`
}

// repeatRuns runs n back-to-back sets of all workloads, prints them as
// one document on stdout and the per-metric spread table on stderr.
func repeatRuns(n int, cfg runConfig, stdout, stderr io.Writer) int {
	doc := repeatDoc{}
	ok := true
	for i := 0; i < n; i++ {
		full, err := runAll(cfg, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		ok = ok && full.correct()
		doc.Runs = append(doc.Runs, full)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(stderr, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tmax rel dev\t")
	samples := doc.samples()
	for _, wl := range sortedKeys(samples) {
		for _, metric := range sortedKeys(samples[wl]) {
			xs := samples[wl][metric]
			q := quartiles(xs)
			dev := 0.0
			for _, x := range xs {
				if q.med != 0 {
					dev = math.Max(dev, math.Abs(x-q.med)/math.Abs(q.med))
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t\n", wl, metric, q.med, q.q1, q.q3, 100*dev)
		}
	}
	tw.Flush()
	if !ok {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// samples gathers every run's value per workload and metric.
func (d *repeatDoc) samples() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range d.Runs {
		for wl, rep := range run.Workloads {
			if out[wl] == nil {
				out[wl] = map[string][]float64{}
			}
			for metric, v := range rep.Metrics {
				out[wl][metric] = append(out[wl][metric], v.Value)
			}
		}
	}
	return out
}

// loadSamples reads a saved report: a -repeat document, or the single
// document a plain run prints.
func loadSamples(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc repeatDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		var one fullReport
		if err := json.Unmarshal(raw, &one); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(one.Workloads) == 0 {
			return nil, fmt.Errorf("%s: neither a run report nor a -repeat document", path)
		}
		doc.Runs = []*fullReport{&one}
	}
	return doc.samples(), nil
}

// benchmarkBounds reads the end-to-end metric definitions of
// BENCHMARK.json: direction and bound per name.
type boundDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func benchmarkBounds(path string) ([]boundDef, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var firstErr error
	for _, p := range candidates {
		raw, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var doc struct {
			EndToEnd []boundDef `json:"end_to_end"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return doc.EndToEnd, nil
	}
	return nil, firstErr
}

// verdict judges b against a for one metric. rel is how much worse b's
// median is, as a share of a's (negative = better); a side's spread is
// the distance between its quartiles as a share of its median.
func verdict(a, b []float64, lower bool, bound float64) (v string, rel float64) {
	qa, qb := quartiles(a), quartiles(b)
	if qa.med == 0 {
		return "unresolved", 0
	}
	rel = (qb.med - qa.med) / math.Abs(qa.med)
	if !lower {
		rel = -rel
	}
	spread := math.Max((qa.q3-qa.q1)/math.Abs(qa.med), (qb.q3-qb.q1)/math.Abs(qa.med))
	switch {
	case spread > bound:
		return "unresolved", rel
	case rel > bound:
		return "worse", rel
	case rel < -bound && rel < -spread:
		return "better", rel
	}
	return "no-worse", rel
}

// compareReports prints one row per workload × end-to-end metric and
// exits 1 if any row is worse.
func compareReports(pathA, pathB, benchJSON string, stdout, stderr io.Writer) int {
	bounds, err := benchmarkBounds(benchJSON)
	if err == nil && len(bounds) == 0 {
		err = fmt.Errorf("BENCHMARK.json defines no end_to_end metrics")
	}
	var a, b map[string]map[string][]float64
	if err == nil {
		a, err = loadSamples(pathA)
	}
	if err == nil {
		b, err = loadSamples(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict\t")
	worse := false
	for _, wl := range sortedKeys(a) {
		for _, d := range bounds {
			xa, xb := a[wl][d.Name], b[wl][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, rel := verdict(xa, xb, d.Better == "lower", d.Bound)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%% worse\t%.0f%%\t%s\t\n",
				wl, d.Name, median(xa), median(xb), 100*rel, 100*d.Bound, v)
		}
	}
	tw.Flush()
	if worse {
		return 1
	}
	return 0
}
