// Command bench is the repository's benchmark. It drives the live
// detection daemon (internal/sentinel, with its tsdb store) over unix
// session sockets and the paper's simulation campaigns (internal/eval)
// through fixed workloads generated from a seed, checks every output
// against a reference, and reports the end-to-end metrics that
// BENCHMARK.json names — or, with -trace 1, the per-layer metrics of a
// traced rerun. The last line of standard output is the result as one
// JSON object; a human-readable table precedes it. See README.md.
//
//	go run . -workload ingest-sparse -seed 1
//	go run . -workload ingest-dense -seed 1 -trace 1 -spans spans.json
//	go run . -compare before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed; equal seeds give equal inputs")
	seconds := fs.Float64("seconds", 25, "measuring budget of the run in seconds, split across its phases")
	trace := fs.Int("trace", 0, "1: rerun the workload traced and report per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans here (default .bench_build/spans-<workload>-<seed>.json)")
	out := fs.String("out", "", "also write the full result JSON to this file")
	workdir := fs.String("workdir", ".bench_build/work", "directory for the run's stores, removed again when it ends")
	compare := fs.Bool("compare", false, "compare two directories of result JSONs: -compare A/ B/")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A/ B/")
			return 2
		}
		if err := compareDirs(*spec, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || !slices.Contains(workloadNames, *workload) || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "usage: bench -workload "+strings.Join(workloadNames, "|")+" [-seed n] [-seconds s] [-trace 0|1] [-out file]")
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: *workdir}
	if opt.traced && *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
	}
	return report(opt, *spans, *out, stdout, stderr)
}

// report runs one workload and reports it: spans and the full result
// to their files when asked, then the table and the result line on
// stdout. It exits 1 when a check failed.
func report(opt options, spans, out string, stdout, stderr io.Writer) int {
	res, tr, err := execute(opt)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if tr != nil && spans != "" {
		if err := tr.write(spans); err != nil {
			fmt.Fprintln(stderr, "bench: writing spans:", err)
			return 1
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: writing result:", err)
			return 1
		}
	}
	printTable(stdout, res)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload in a fresh directory under opt.workdir and
// returns its result, plus its spans when traced.
func execute(opt options) (*Result, *tracer, error) {
	w, ok := lookup(opt.workload, runtime.NumCPU())
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(opt.workdir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	opt.workdir = dir
	// Whatever an earlier process left for the kernel to write back is
	// written now, before anything is timed.
	syscall.Sync()
	r := newRun(opt)
	switch {
	case opt.traced:
		err = r.runTraced(w)
	case w.ingest != nil:
		err = r.runIngest(r.sized(*w.ingest))
	default:
		err = r.runCampaign(*w.campaign)
	}
	if err != nil {
		return nil, nil, err
	}
	res, err := r.finish()
	return res, r.tr, err
}

// printTable prints a result for people: the run's settings, every
// metric with its unit, the side observations and the checks.
func printTable(w io.Writer, res *Result) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  seconds %g  nproc %d  GOMAXPROCS %d  %s\n",
		res.Workload, res.Seed, res.Traced, res.Seconds, res.NProc, res.GOMAXPROCS, res.GoVersion)
	fmt.Fprintf(w, "passes   %s\n", joinCounts(res.Passes))
	if len(res.Samples) > 0 {
		fmt.Fprintf(w, "samples  %s\n", joinCounts(res.Samples))
	}
	if res.Digest != "" {
		fmt.Fprintf(w, "digest   %s\n", res.Digest)
	}
	fmt.Fprintf(w, "%-34s %16s  %s\n", "metric", "value", "unit")
	for _, d := range catalog(res.Traced) {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %16.6g  %s\n", d.Name, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(res.Info) {
		fmt.Fprintf(w, "%-34s %16.6g  %s  (observed, not a metric)\n", k, res.Info[k].Value, res.Info[k].Unit)
	}
	fmt.Fprintf(w, "attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

func joinCounts(m map[string]int) string {
	var parts []string
	for _, k := range sortedKeys(m) {
		parts = append(parts, fmt.Sprintf("%s %d", k, m[k]))
	}
	return strings.Join(parts, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
