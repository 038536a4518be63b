package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/scenario"
)

// The cross-attack evaluation matrix: every scenario in the
// related-attack library — the paper's neighbours — measured the same
// way the BLAP attacks are. Each (attack, channel) cell runs an
// independent campaign of hermetic worlds, counts attack successes, and
// replays each successful victim's own HCI dump through the incremental
// detector to measure whether and how early the attack's forensic rule
// fires. Rows are pure functions of (seed, attack, channel, trial), so
// the matrix is bit-identical at any worker count.

// AttackRow is one (attack, channel) cell of the matrix.
type AttackRow struct {
	Attack  string
	Channel string
	// PlanSpec is the channel's fault plan in the -faults mini-language.
	PlanSpec string
	Trials   int
	// Succeeded counts trials where the attack reached its goal. For the
	// passkey-guard mitigation row this is the attack's success against
	// the hardened protocol — a healthy build reports 0.
	Succeeded int
	// DetectorKind is the forensic rule expected on the victim's dump;
	// "-" when the attack is wire-indistinguishable from a legitimate
	// exchange and no rule can exist (OOB MITM, and the mitigation row
	// where the attack never completes).
	DetectorKind string
	// Detected counts successful trials whose victim dump raised
	// DetectorKind; MeanDetectFraction is the mean first-finding position
	// (frame/totalFrames) across them.
	Detected           int
	MeanDetectFraction float64
}

// attackNames are the matrix's rows, in order: the related-attack
// library and its mitigation control, run from the scenario registry.
var attackNames = []string{"stealtooth", "happy-mitm", "blurtooth", "oob-mitm", "passkey-sniff", "passkey-guard"}

// attackChannels are the matrix's channel conditions.
func attackChannels() []DegradedSetting {
	return []DegradedSetting{
		{Label: "clean", Plan: faults.Plan{}},
		{Label: "5% loss", Plan: faults.Plan{Drop: 0.05}},
	}
}

// attackSample is one trial's measurement.
type attackSample struct {
	OK       bool
	Detected bool
	Fraction float64
}

// RunAttackMatrixWorkers measures every library attack under every
// channel condition with `trials` hermetic worlds per cell.
func RunAttackMatrixWorkers(seed int64, trials, workers int) ([]AttackRow, error) {
	channels := attackChannels()
	rows := make([]AttackRow, 0, len(attackNames)*len(channels))
	cfg := sweepCfg(workers)

	for _, name := range attackNames {
		spec, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("eval: attack matrix: no scenario %q", name)
		}
		for _, ch := range channels {
			ch := ch
			row := AttackRow{
				Attack: name, Channel: ch.Label, PlanSpec: ch.Plan.String(),
				Trials: trials, DetectorKind: spec.Rule,
			}
			if row.DetectorKind == "" {
				row.DetectorKind = "-"
			}
			domain := "attacks/" + name + "/" + ch.Label
			samples, err := campaign.Run(context.Background(), trials, cfg,
				func(_ context.Context, i int) (attackSample, error) {
					s := campaign.DeriveSeed(seed, domain, i)
					tb, err := core.NewTestbed(s, spec.Options(ch.Plan))
					if err != nil {
						// A world whose setup bond the channel ate is a failed
						// trial, not a matrix error.
						if core.IsChannelFault(err) {
							return attackSample{}, nil
						}
						return attackSample{}, err
					}
					out, err := spec.Run(tb)
					if err != nil {
						return attackSample{}, err
					}
					sample := attackSample{OK: out.OK}
					if !out.OK || spec.Rule == "" || out.Victim.Snoop == nil {
						return sample, nil
					}
					data, err := out.Victim.Snoop.Bytes()
					if err != nil {
						return attackSample{}, err
					}
					first, frames, err := firstFinding(data, spec.Rule)
					if err != nil {
						return attackSample{}, err
					}
					if first > 0 {
						sample.Detected = true
						sample.Fraction = float64(first) / float64(frames)
					}
					return sample, nil
				})
			if err != nil {
				return nil, fmt.Errorf("eval: attack matrix (%s, %s): %w", name, ch.Label, err)
			}
			var sumFrac float64
			for _, s := range samples {
				if s.OK {
					row.Succeeded++
				}
				if s.Detected {
					row.Detected++
					sumFrac += s.Fraction
				}
			}
			if row.Detected > 0 {
				row.MeanDetectFraction = sumFrac / float64(row.Detected)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderAttackMatrix formats the matrix as a table.
func RenderAttackMatrix(rows []AttackRow) string {
	var b strings.Builder
	b.WriteString("Cross-attack matrix (related-attack library; detection from the victim's own dump)\n")
	fmt.Fprintf(&b, "  %-14s %-8s %-12s %10s %-22s %10s %9s\n",
		"attack", "channel", "plan", "success", "detector rule", "detected", "detect@")
	for _, r := range rows {
		detectAt := "-"
		if r.Detected > 0 {
			detectAt = fmt.Sprintf("%.0f%%", 100*r.MeanDetectFraction)
		}
		plan := r.PlanSpec
		if plan == "" {
			plan = "-"
		}
		fmt.Fprintf(&b, "  %-14s %-8s %-12s %7d/%-2d %-22s %7d/%-2d %9s\n",
			r.Attack, r.Channel, plan,
			r.Succeeded, r.Trials,
			r.DetectorKind,
			r.Detected, r.Succeeded,
			detectAt)
	}
	return b.String()
}
