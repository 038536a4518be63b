package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads every *.json result in dir, grouped by workload, in
// file-name order: runs made in alternation pair up by position.
func loadResults(dir string) (map[string][]*Result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := map[string][]*Result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, nil
}

// verdict judges B against A for one metric by the rules of the
// choosing-metrics guide: improved when B wins at least 9 in 10 pairs
// and the medians differ by more than A's own quartile spread;
// unresolved when either side's quartile spread is wider than the
// bound, unless every B run beats every A run; regressed when B's median
// is worse than A's by more than the bound; unchanged otherwise.
func verdict(a, b []float64, m metricDef) (v string, winRate float64) {
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	pairs := min(len(a), len(b))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	winRate = float64(wins) / float64(pairs)
	ma, mb := median(a), median(b)
	q1a, q3a := quartiles(a)
	q1b, q3b := quartiles(b)
	spread := math.Max((q3a-q1a)/math.Abs(ma), (q3b-q1b)/math.Abs(mb))
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse < 0 && winRate >= 0.9 && math.Abs(mb-ma) > q3a-q1a:
		return "improved", winRate
	case spread > m.Bound && !allBetter:
		return "unresolved", winRate
	case worse > m.Bound:
		return "regressed", winRate
	}
	return "unchanged", winRate
}

// compareDirs prints, for each workload and end-to-end metric, each
// side's median and quartiles, B's pairwise win rate over A and the
// verdict, plus each side's failed operations (any rise regresses).
func compareDirs(specPath, dirA, dirB string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-18s %5s %12s %25s %12s %25s %5s  %s\n",
		"workload", "metric", "runs", "A median", "A q1..q3", "B median", "B q1..q3", "win", "verdict")
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-14s missing runs (A %d, B %d)\n", wl.Name, len(ra), len(rb))
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			v, win := verdict(va, vb, m)
			q1a, q3a := quartiles(va)
			q1b, q3b := quartiles(vb)
			fmt.Fprintf(w, "%-14s %-18s %2d/%-2d %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %5.2f  %s\n",
				wl.Name, m.Name, len(va), len(vb), median(va), q1a, q3a, median(vb), q1b, q3b, win, v)
		}
		fa, fb := failedOps(ra), failedOps(rb)
		v := "unchanged"
		if fb > fa {
			v = "regressed"
		}
		fmt.Fprintf(w, "%-14s %-18s %2d/%-2d %12d %25s %12d %25s %5s  %s\n",
			wl.Name, "failed", len(ra), len(rb), fa, "", fb, "", "", v)
	}
	return nil
}

func metricValues(rs []*Result, name string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failedOps(rs []*Result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}
