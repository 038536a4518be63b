package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/forensics"
)

// The degraded-channel sweep: how do the BLAP attacks — and blapd's
// detection of them — behave when the 2.4 GHz medium actually loses,
// corrupts, and clusters frames? Each loss setting runs independent
// campaigns of link key extractions (with the attacker's paging
// retry/backoff and the campaign retry policy active), page-blocking
// MITM attempts (measuring live detection latency on the victim's dump),
// and legitimate M–C pairings (the ARQ resilience control).

// DegradedSetting is one channel condition of the sweep.
type DegradedSetting struct {
	Label string
	Plan  faults.Plan
}

// DefaultDegradedSettings is the published sweep: a clean reference,
// three uniform loss rates, and a Gilbert–Elliott bursty channel.
func DefaultDegradedSettings() []DegradedSetting {
	return []DegradedSetting{
		{Label: "clean", Plan: faults.Plan{}},
		{Label: "2% loss", Plan: faults.Plan{Drop: 0.02}},
		{Label: "5% loss", Plan: faults.Plan{Drop: 0.05}},
		{Label: "10% loss", Plan: faults.Plan{Drop: 0.10}},
		{Label: "bursty", Plan: faults.Plan{Drop: 0.02, Burst: &faults.Burst{PEnter: 0.02, PExit: 0.25, BadLoss: 0.6}}},
	}
}

// DegradedRow is one channel condition's measured outcomes.
type DegradedRow struct {
	Label string
	// PlanSpec is the fault plan in the -faults mini-language.
	PlanSpec string
	Trials   int

	// ExtractionOK counts successful link key extractions; MeanAttempts
	// is the average campaign attempts a trial took (1 = no retries).
	ExtractionOK int
	MeanAttempts float64

	// PageBlockingOK counts page-blocking trials that established MITM.
	PageBlockingOK int
	// Detected counts MITM'd victim dumps where the incremental detector
	// fired; MeanDetectFraction is the mean first-finding position
	// (frame/totalFrames) across them.
	Detected           int
	MeanDetectFraction float64

	// LegitPairOK counts legitimate M-C pairings that succeeded with the
	// channel degraded from the first page onwards.
	LegitPairOK int

	// MeanLossRate is the realized frame-loss fraction averaged over the
	// setting's extraction trials (0 for the clean row).
	MeanLossRate float64
}

// degradedPB is one page-blocking trial's sample.
type degradedPB struct {
	MITM     bool
	Detected bool
	Fraction float64
}

// RunDegradedSweepWorkers measures every DefaultDegradedSettings
// condition with `trials` trials per campaign per condition. Trials are
// pure functions of their derived seeds; rows are order-independent
// aggregates, bit-identical at any worker count. The clean row doubles
// as the determinism control: its plan is the zero plan, so its worlds
// are byte-for-byte the worlds a faultless build runs.
func RunDegradedSweepWorkers(seed int64, trials, workers int) ([]DegradedRow, error) {
	settings := DefaultDegradedSettings()
	rows := make([]DegradedRow, len(settings))
	cfg := sweepCfg(workers)
	pol := campaign.RetryPolicy{MaxAttempts: 3, Retryable: core.IsChannelFault}

	for si, setting := range settings {
		row := DegradedRow{Label: setting.Label, PlanSpec: setting.Plan.String(), Trials: trials}
		domain := "degraded/" + setting.Label

		// Campaign 1: link key extraction with the retry policy active.
		type extSample struct {
			OK       bool
			LossRate float64
		}
		ext, err := campaign.RunRetry(context.Background(), trials, cfg, pol,
			func(_ context.Context, a campaign.Attempt) (extSample, error) {
				s := campaign.DeriveSeed(seed, campaign.AttemptDomain(domain+"/extract", a.Attempt), a.Trial)
				tb, err := core.NewTestbed(s, core.TestbedOptions{
					ClientPlatform: device.GalaxyS21Android11,
					Bond:           true,
					Faults:         setting.Plan,
				})
				if err != nil {
					return extSample{}, err
				}
				rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
					Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
				})
				sample := extSample{}
				if tb.Injector != nil {
					sample.LossRate = tb.Injector.Stats().LossRate()
				}
				if err != nil {
					if core.IsChannelFault(err) {
						return sample, err // retryable: the channel ate the attempt
					}
					return sample, nil // terminal outcome: counted as a failed trial
				}
				sample.OK = rep.Key == tb.BondKey
				return sample, nil
			})
		if err != nil && !core.IsChannelFault(err) {
			return nil, fmt.Errorf("eval: degraded extraction (%s): %w", setting.Label, err)
		}
		var sumAttempts, sumLoss float64
		for _, r := range ext {
			if r.Err == nil && r.Value.OK {
				row.ExtractionOK++
			}
			sumAttempts += float64(r.Attempts)
			sumLoss += r.Value.LossRate
		}
		if trials > 0 {
			row.MeanAttempts = sumAttempts / float64(trials)
			row.MeanLossRate = sumLoss / float64(trials)
		}

		// Campaign 2: page blocking + live detection latency on the
		// victim's own dump.
		pbs, err := campaign.Run(context.Background(), trials, cfg,
			func(_ context.Context, i int) (degradedPB, error) {
				s := campaign.DeriveSeed(seed, domain+"/pageblock", i)
				tb, err := core.NewTestbed(s, core.TestbedOptions{Faults: setting.Plan})
				if err != nil {
					return degradedPB{}, err
				}
				rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
				})
				sample := degradedPB{MITM: rep.MITMEstablished}
				if !sample.MITM {
					return sample, nil
				}
				data, err := tb.M.Snoop.Bytes()
				if err != nil {
					return degradedPB{}, err
				}
				first, frames, err := firstFinding(data, forensics.FindingPageBlocking)
				if err != nil {
					return degradedPB{}, err
				}
				if first > 0 {
					sample.Detected = true
					sample.Fraction = float64(first) / float64(frames)
				}
				return sample, nil
			})
		if err != nil {
			return nil, fmt.Errorf("eval: degraded page blocking (%s): %w", setting.Label, err)
		}
		var sumFrac float64
		for _, s := range pbs {
			if s.MITM {
				row.PageBlockingOK++
			}
			if s.Detected {
				row.Detected++
				sumFrac += s.Fraction
			}
		}
		if row.Detected > 0 {
			row.MeanDetectFraction = sumFrac / float64(row.Detected)
		}

		// Campaign 3: the legitimate pairing control — the degraded
		// channel is up before M and C ever exchange a frame.
		legit, err := campaign.Run(context.Background(), trials, cfg,
			func(_ context.Context, i int) (bool, error) {
				s := campaign.DeriveSeed(seed, domain+"/legit", i)
				tb, err := core.NewTestbed(s, core.TestbedOptions{
					Bond:              true,
					Faults:            setting.Plan,
					FaultsDuringSetup: true,
				})
				if err != nil {
					return false, nil // pairing lost to the channel: a failed trial, not a sweep error
				}
				_ = tb
				return true, nil
			})
		if err != nil {
			return nil, fmt.Errorf("eval: degraded legit pairing (%s): %w", setting.Label, err)
		}
		for _, ok := range legit {
			if ok {
				row.LegitPairOK++
			}
		}

		rows[si] = row
	}
	return rows, nil
}

// RenderDegraded formats the sweep as a table.
func RenderDegraded(rows []DegradedRow) string {
	var b strings.Builder
	b.WriteString("Degraded-channel sweep (per-condition campaigns; retry policy: 3 attempts on channel faults)\n")
	fmt.Fprintf(&b, "  %-10s %-34s %12s %9s %13s %12s %12s %10s\n",
		"channel", "plan", "extraction", "attempts", "page-blocking", "detected", "detect@", "legit-pair")
	for _, r := range rows {
		detectAt := "-"
		if r.Detected > 0 {
			detectAt = fmt.Sprintf("%.0f%%", 100*r.MeanDetectFraction)
		}
		fmt.Fprintf(&b, "  %-10s %-34s %9d/%-2d %9.2f %10d/%-2d %9d/%-2d %12s %7d/%-2d\n",
			r.Label, r.PlanSpec,
			r.ExtractionOK, r.Trials, r.MeanAttempts,
			r.PageBlockingOK, r.Trials,
			r.Detected, r.PageBlockingOK,
			detectAt,
			r.LegitPairOK, r.Trials)
	}
	return b.String()
}
