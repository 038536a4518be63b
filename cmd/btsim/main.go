// Command btsim runs ad-hoc piconet scenarios in the simulator and writes
// the resulting HCI captures to disk: a btsnoop file per snoop-capable
// device and a raw URB stream for sniffed USB transports. The files are
// bit-compatible with the real formats (cmd/hcidump and Wireshark's
// btsnoop reader can open the .btsnoop outputs).
//
//	btsim -scenario pair -o captures/
//	btsim -scenario bond-reconnect -o captures/
//	btsim -scenario extraction -o captures/
//	btsim -scenario extraction -faults 'drop=0.05,burst=0.02:0.25:0.6' -o captures/
//	btsim -scenario stealtooth -o captures/
//	btsim -scenario passkey-sniff -repeat 100
//
// The scenarios come from internal/scenario, plus flaky-extraction:
// extraction over a canned fault plan. -help and an unknown -scenario
// list them all.
//
// The -faults flag degrades the simulated medium with a deterministic
// fault plan (see internal/faults: drop, corrupt, dup, reorder, burst,
// outage). The plan draws from the same seeded scheduler RNG as the rest
// of the simulation, so identical -seed and -faults values reproduce the
// captures byte for byte.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/scenario"
)

// flakyExtraction runs extraction over flakyPlan unless -faults names
// another plan. The attack rides the canned plan out via ARQ, paging
// retries and backoff.
const flakyExtraction = "flaky-extraction"

var flakyPlan = faults.Plan{
	Drop:    0.05,
	Burst:   &faults.Burst{PEnter: 0.02, PExit: 0.25, BadLoss: 0.6},
	Outages: []faults.Outage{{Device: "C", Start: 2 * time.Second, Duration: 3 * time.Second}},
}

func main() {
	var (
		name     = flag.String("scenario", "pair", "scenario: "+scenarioNames())
		out      = flag.String("o", ".", "output directory for capture files")
		seed     = flag.Int64("seed", 1, "random seed")
		faultStr = flag.String("faults", "", "deterministic fault plan, e.g. 'drop=0.05,burst=0.02:0.25:0.6,outage=C@2s+500ms'")
		repeat   = flag.Int("repeat", 1, "run the scenario this many times as a deterministic campaign (no capture files), with live progress on stderr")
		workers  = flag.Int("workers", 0, "campaign workers for -repeat (0 = GOMAXPROCS)")
	)
	flag.Parse()

	run := *name
	if run == flakyExtraction {
		run = "extraction"
	}
	e, ok := scenario.Lookup(run)
	if !ok {
		fmt.Fprintf(os.Stderr, "btsim: unknown scenario %q (valid: %s)\n", *name, scenarioNames())
		os.Exit(2)
	}

	plan, err := faults.ParsePlan(*faultStr)
	if err != nil {
		fail(err)
	}
	if *name == flakyExtraction {
		if *faultStr == "" {
			plan = flakyPlan
		}
		fmt.Printf("fault plan: %s\n", plan)
	}

	if *repeat > 1 {
		if err := runRepeated(e, plan, *seed, *repeat, *workers); err != nil {
			fail(err)
		}
		return
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}

	tb, err := core.NewTestbed(*seed, e.Options(plan))
	if err != nil {
		fail(err)
	}
	res, err := e.Run(tb)
	if err != nil {
		fail(err)
	}
	fmt.Println(res.Line)

	// Files are written in one fixed order, M, C, A, so the output is
	// the same on every run.
	roles := []struct {
		name string
		d    *device.Device
	}{{"M", tb.M}, {"C", tb.C}, {"A", tb.A}}
	for _, r := range roles {
		if r.d.Snoop == nil || r.d.Snoop.Len() == 0 {
			continue
		}
		data, err := r.d.PullSnoopLog()
		if err != nil {
			fail(err)
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_%s.btsnoop", *name, r.name))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d records, %d bytes)\n", path, r.d.Snoop.Len(), len(data))
	}
	for _, r := range roles {
		if r.d.Host.Bonds().Len() == 0 {
			continue
		}
		path := filepath.Join(*out, fmt.Sprintf("%s_%s_bt_config.conf", *name, r.name))
		if err := r.d.Host.Bonds().SaveConfigFile(path); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bonds)\n", path, r.d.Host.Bonds().Len())
	}
	if tb.C.USB != nil && len(tb.C.USB.Raw()) > 0 {
		path := filepath.Join(*out, fmt.Sprintf("%s_C.usbraw", *name))
		if err := os.WriteFile(path, tb.C.USB.Raw(), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, len(tb.C.USB.Raw()))
	}
}

// runRepeated runs the scenario as a deterministic campaign: one
// hermetic testbed per trial seeded from the trial index, channel
// faults retried like the degraded-channel sweeps, and the engine's
// progress telemetry (trials/sec, retry count, ETA) reported live on
// stderr. Capture files are not written; the output is the outcome
// tally.
func runRepeated(e scenario.Entry, plan faults.Plan, seed int64, n, workers int) error {
	domain := "btsim/" + e.Name
	trial := func(_ context.Context, a campaign.Attempt) (bool, error) {
		// Each trial derives its world from (seed, scenario, trial,
		// attempt) so the sweep is bit-identical at any worker count.
		s := campaign.DeriveSeed(seed, campaign.AttemptDomain(domain, a.Attempt), a.Trial)
		tb, err := core.NewTestbed(s, e.Options(plan))
		if err != nil {
			return false, err
		}
		out, err := e.Run(tb)
		if core.IsChannelFault(err) {
			return false, err // retryable
		}
		// Any other error is a failed trial, not a failed campaign.
		return err == nil && out.OK, nil
	}

	p := &campaign.Progress{}
	stop := p.Report(os.Stderr, 500*time.Millisecond)
	pol := campaign.RetryPolicy{MaxAttempts: 3, Retryable: core.IsChannelFault}
	res, err := campaign.RunRetry(context.Background(), n, campaign.Config{Workers: workers, Progress: p}, pol, trial)
	stop()
	if err != nil && !core.IsChannelFault(err) {
		return err
	}
	ok := 0
	var attempts int
	for _, r := range res {
		if r.Err == nil && r.Value {
			ok++
		}
		attempts += r.Attempts
	}
	s := p.Snapshot()
	fmt.Printf("%s x %d: %d/%d succeeded, %.2f mean attempts, %.1f trials/s, trial p50 %s p99 %s\n",
		e.Name, n, ok, n, float64(attempts)/float64(n), s.TrialsPerSec,
		time.Duration(s.Latency.P50US*1e3).Round(time.Microsecond),
		time.Duration(s.Latency.P99US*1e3).Round(time.Microsecond))
	return nil
}

// scenarioNames lists the registry in order, with flaky-extraction after
// the scenario it runs.
func scenarioNames() string {
	var names []string
	for _, n := range scenario.Names() {
		names = append(names, n)
		if n == "extraction" {
			names = append(names, flakyExtraction)
		}
	}
	return strings.Join(names, ", ")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "btsim:", err)
	os.Exit(1)
}
