package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload untraced and traced at a tiny
// size (20k records, two measured passes per phase, five trials per
// campaign cell) and checks that each emits every metric BENCHMARK.json
// names for its kind of run, with its unit, and that its checks ran and
// passed.
func TestWorkloadsTiny(t *testing.T) {
	spec := readSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				res, tr, err := execute(options{
					workload: name, seed: 7, seconds: 0.001, traced: traced,
					workdir: t.TempDir(), records: 20_000, trials: 5, minPasses: 2, quick: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
					t.Fatalf("checks: attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Failures)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if traced != (tr != nil) {
					t.Fatalf("traced %v but tracer %v", traced, tr)
				}
				if traced {
					path := filepath.Join(t.TempDir(), "spans.json")
					var got []span
					err := tr.write(path)
					if b, rerr := os.ReadFile(path); err == nil {
						err = errors.Join(rerr, json.Unmarshal(b, &got))
					}
					if err != nil || len(got) == 0 {
						t.Errorf("spans file: %v, %d spans", err, len(got))
					}
				}
			})
		}
	}
}

// TestReportResultLine checks the contract of a run's standard output:
// a table, then one JSON object with exactly correct, attempted, failed
// and metrics as the last line; and that -out records the run's
// settings.
func TestReportResultLine(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var stdout, stderr bytes.Buffer
	opt := options{workload: "campaign", seed: 3, seconds: 0.001, workdir: dir, trials: 5, minPasses: 2}
	if code := report(opt, "", out, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("result line keys %v", keys)
	}
	var res Result
	b, err := os.ReadFile(out)
	if err == nil {
		err = json.Unmarshal(b, &res)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "campaign" || res.Seed != 3 || res.NProc < 1 || res.GOMAXPROCS < 1 ||
		res.GoVersion == "" || res.Passes["parallel"] < 2 || res.Passes["serial"] < 2 || res.Digest == "" {
		t.Errorf("result file lacks run settings: %+v", res)
	}
	for _, args := range [][]string{{"--workload", "nope"}, {"--workload", "campaign", "--trace", "2"}, {"--compare", "a/"}} {
		if code := cli(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v exits %d, want 2", args, code)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark
// contract and against this program: the metrics it names are exactly
// the ones the program reports, and every per-layer metric names the
// end-to-end metric it should move and the workload that shows it.
func TestBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || seen[w.Name] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v", w)
		}
		seen[w.Name] = true
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
	for _, m := range append(append([]metricDef(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("metric %+v", m)
		}
		seen[m.Name] = true
	}
	maxBound := 0.0
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %g", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if i := slices.IndexFunc(spec.EndToEnd, func(m metricDef) bool { return m.Name == "setup_s" }); i < 0 ||
		spec.EndToEnd[i] != (metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: maxBound}) {
		t.Errorf("setup_s must be in s, lower, with the largest bound %g", maxBound)
	}
	if !slices.Equal(spec.EndToEnd, catalog(false)) {
		t.Errorf("end_to_end %+v\nprogram reports %+v", spec.EndToEnd, catalog(false))
	}
	if !slices.Equal(spec.PerLayer, catalog(true)) {
		t.Errorf("per_layer %+v\nprogram reports %+v", spec.PerLayer, catalog(true))
	}
	for _, l := range perLayer {
		if !slices.ContainsFunc(spec.EndToEnd, func(m metricDef) bool { return m.Name == l.Moves }) || !slices.Contains(workloadNames, l.On) {
			t.Errorf("%s should move %q on %q: not an end-to-end metric and workload", l.Name, l.Moves, l.On)
		}
	}
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; Python gives %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{"", "plain", "peer 00:1a:7d:c9:5b:01", "em — dash", "a<b>&c", `q"uote\`,
		"tab\tnl\n", "\x01ctl", "line\u2028sep", "bad \xff utf8"} {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json gives %s", s, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{base, "unchanged"},
		{scale(base, 0.8), "improved"},
		{scale(base, 1.05), "unchanged"},
		{scale(base, 1.2), "regressed"},
		{[]float64{5, 15, 6, 14, 5, 15, 6, 14, 5, 15}, "unresolved"},
	} {
		if got, _ := verdict(base, c.b, lower); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	higher := metricDef{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	if got, win := verdict(base, scale(base, 1.2), higher); got != "improved" || win != 1 {
		t.Errorf("higher-is-better gain: %s, win rate %g", got, win)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	if got := covered([][2]int64{{0, 10}, {5, 15}, {20, 25}}); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	tr := newTracer("w")
	root := tr.start(spanRef{}, "parent", "step", 0)
	child := root.child("child")
	child.end()
	root.end()
	self := tr.selfTimes("step", "parent")[0]
	total := tr.totalTimes("step", "parent")[0]
	if self < 0 || self > total || total-self != tr.totalTimes("step", "child")[0] {
		t.Errorf("self %d, total %d", self, total)
	}
}
