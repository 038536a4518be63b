package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings. records, trials, minPasses and quick
// default to the workload's own sizes; tests shrink them.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	workdir   string
	records   int
	trials    int
	minPasses int
	quick     bool // a tenth of the micro-measurement repetitions
}

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is everything one run measured and checked.
type Result struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Traced     bool              `json:"traced"`
	Seconds    float64           `json:"seconds"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Passes     map[string]int    `json:"passes"`
	Samples    map[string]int    `json:"samples"`
	Digest     string            `json:"digest,omitempty"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Metrics    map[string]Metric `json:"metrics"`
	Info       map[string]Metric `json:"info,omitempty"`
}

// maxFailureNotes caps how many failure descriptions a result keeps.
const maxFailureNotes = 20

// run is one benchmark run in progress.
type run struct {
	opt    options
	res    *Result
	tr     *tracer // nil untraced
	nproc  int
	values map[string]float64
	out    sink // every pass's daemon Output
	// peakRSS is the largest, over the measured phases, of the median
	// peak resident set of the phase's passes, in MB.
	peakRSS float64
	probe   *hostProbe
	// hosted holds the metrics that measure compute time, which finish
	// scales to the reference host.
	hosted map[string]hostedMetric
}

// hostedMetric is how finish scales a metric that measures compute time:
// exp is 1 for a rate and -1 for a duration, stolen the steal share of
// the passes it was measured on, host their host factor (0: the run's).
type hostedMetric struct{ exp, stolen, host float64 }

func newRun(opt options) *run {
	nproc := runtime.NumCPU()
	if opt.minPasses <= 0 {
		opt.minPasses = 3
	}
	r := &run{
		opt:   opt,
		nproc: nproc,
		res: &Result{
			Workload: opt.workload, Seed: opt.seed, Traced: opt.traced, Seconds: opt.seconds,
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Passes: map[string]int{}, Samples: map[string]int{}, Info: map[string]Metric{},
		},
		values: map[string]float64{},
		probe:  newHostProbe(),
		hosted: map[string]hostedMetric{},
	}
	if opt.traced {
		r.tr = newTracer(opt.workload)
	}
	return r
}

// op counts one attempted operation and, when it failed, notes why.
func (r *run) op(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	r.ops(1, failed, format, args...)
}

// ops counts attempted operations of which failed failed, noting why.
func (r *run) ops(attempted, failed int, format string, args ...any) {
	r.res.Attempted += attempted
	if failed == 0 {
		return
	}
	r.res.Failed += failed
	if len(r.res.Failures) < maxFailureNotes {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// opErr is op for a call that returned an error.
func (r *run) opErr(err error, what string) bool {
	r.op(err == nil, "%s: %v", what, err)
	return err == nil
}

// set records a metric value; finish labels it from the catalog.
func (r *run) set(name string, v float64) { r.values[name] = v }

// setHosted records a metric that measures compute time, a rate (exp 1)
// or a duration (exp -1), as measured on passes of which the hypervisor
// stole the share stolen; finish takes the stolen time out and scales it
// to the reference host's speed by the run's host factor.
func (r *run) setHosted(name string, v, exp, stolen float64) {
	r.setHostedAt(name, v, exp, stolen, 0)
}

// setHostedAt is setHosted for a metric measured while the host factor
// was host, which finish then uses instead of the run's.
func (r *run) setHostedAt(name string, v, exp, stolen, host float64) {
	r.set(name, v)
	r.hosted[name] = hostedMetric{exp: exp, stolen: stolen, host: host}
}

// steadyRate is the rate that three passes in four reach: on the shared
// host a pass runs in a fast or a slow spell, and how many fall in each
// moves the median rate between runs more than this quartile.
func steadyRate(rates []float64) float64 { return percentile(rates, 0.25) }

// steadyLatency is steadyRate for durations: the one that three passes
// in four take at least.
func steadyLatency(ms []float64) float64 { return percentile(ms, 0.25) }

// info records an observation that is not a benchmark metric.
func (r *run) info(name, unit string, v float64) { r.res.Info[name] = Metric{Value: v, Unit: unit} }

// phase is one kind of measured pass. pass(i) runs pass i of the phase;
// i < 0 is its warm-up, whose measurements the pass must discard (its
// checks still count).
type phase struct {
	name  string
	share float64 // of the group's time
	pass  func(i int) error
	spent time.Duration
	n     int
	peaks []float64  // MB, each measured pass's peak resident set
	steal stealMeter // over the measured passes
}

// measure spends share of the run's measuring budget on the phases.
// Each phase first runs a discarded warm-up pass, so first page touches,
// heap growth and lazy set-up are not charged to its first sample. Then
// the phase furthest below its share of the time spent runs next, so
// every phase samples the whole window and a slow spell of the shared
// host lands on all of them alike, until the budget is spent and every
// phase has minPasses passes. Each pass starts from a collected heap, so
// one pass's garbage is not charged to the next.
func (r *run) measure(share float64, phases ...*phase) error {
	run := func(p *phase, i int) error {
		runtime.GC()
		if i >= 0 {
			r.probe.sample()
		}
		windowed := i >= 0 && resetPeakRSS() == nil
		p.steal.start()
		t0 := time.Now()
		if err := p.pass(i); err != nil {
			return fmt.Errorf("%s pass %d: %w", p.name, i, err)
		}
		if i >= 0 {
			p.spent += time.Since(t0)
			p.steal.stop()
			p.n++
			r.res.Passes[p.name] = p.n
		}
		if windowed {
			if mb, err := peakRSSMB(); err == nil {
				p.peaks = append(p.peaks, mb)
			}
		}
		return nil
	}
	defer func() {
		for _, p := range phases {
			if len(p.peaks) > 0 {
				r.peakRSS = max(r.peakRSS, median(p.peaks))
			}
		}
	}()
	for _, p := range phases {
		if err := run(p, -1); err != nil {
			return err
		}
	}
	budget := time.Duration(share * r.opt.seconds * float64(time.Second))
	start := time.Now()
	for {
		over := time.Since(start) >= budget
		var next *phase
		for _, p := range phases {
			if over && p.n >= r.opt.minPasses {
				continue
			}
			if next == nil || float64(p.spent)/p.share < float64(next.spent)/next.share {
				next = p
			}
		}
		if next == nil {
			return nil
		}
		if err := run(next, next.n); err != nil {
			return err
		}
	}
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// finish labels the metrics from the catalog, adds the peak RSS and
// decides correctness. A catalog metric the run did not produce is a
// bug in the benchmark, reported as an error.
func (r *run) finish() (*Result, error) {
	if !r.opt.traced {
		rss := r.peakRSS
		if rss == 0 { // no per-pass windows on this kernel: the whole run's peak
			var err error
			if rss, err = peakRSSMB(); err != nil {
				return nil, err
			}
		}
		r.set("rss_peak_mb", rss)
	}
	if len(r.probe.samples) > 0 { // every hosted measurement follows a probe
		host := r.probe.factor()
		for name, h := range r.hosted {
			r.info(name+".raw", unitOf(name), r.values[name])
			r.info(name+".stolen", "ratio", h.stolen)
			if h.host == 0 {
				h.host = host
			}
			r.values[name] *= math.Pow(h.host/(1-h.stolen), h.exp)
		}
		r.info("host_factor", "ratio", host)
	}
	r.res.Metrics = map[string]Metric{}
	for _, d := range catalog(r.opt.traced) {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s produced no %s", r.opt.workload, d.Name)
		}
		if math.IsInf(v, 1) || math.IsNaN(v) {
			v = math.MaxFloat64 // a missing sample; the failed check already counts it
		}
		r.res.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	return r.res, nil
}

// resetPeakRSS starts a new VmHWM window at the current resident set.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest) // "1408 kB"
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("parsing VmHWM %q", rest)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
