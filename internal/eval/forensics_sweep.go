package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/snoop"
)

// analyzeDump runs the forensic analyzer over the serialized btsnoop
// artifact, the same bytes an investigator would pull off the device —
// exercising the real capture-file path rather than the in-memory record
// shortcut.
func analyzeDump(d *snoop.HCIDump) (*forensics.Report, error) {
	data, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	return forensics.AnalyzeBytes(data)
}

// firstFinding runs the live detector over a serialized capture through
// the prefiltered batch feed and returns the frame of the first finding
// of the given kind (0 when none fires) and the capture's total frame
// count. The total comes from the scanner: after PushKept the
// detector's own Frames stops at the last relevant record.
func firstFinding(data []byte, kind string) (first, frames int, err error) {
	sc := snoop.NewBatchScannerBytes(data)
	det := forensics.NewDetector()
	var b snoop.RecordBatch
	for sc.ScanBatchKeep(&b, forensics.RelevantRecord) {
		det.PushKept(b.Frames, b.Records)
		for _, ev := range det.Drain() {
			if first == 0 && ev.Finding.Kind == kind {
				first = ev.Frame
			}
		}
	}
	return first, sc.Frame(), sc.Err()
}

// ForensicsSweepResult summarizes detector quality over many worlds.
type ForensicsSweepResult struct {
	Trials int

	// PageBlockingDetected counts attacked victims whose dump triggered
	// the page-blocking finding (true positives).
	PageBlockingDetected int
	// ExtractionDetected counts attacked accessories whose dump triggered
	// the stalled-authentication finding.
	ExtractionDetected int
	// CleanFalsePositives counts innocent pairings flagged with either
	// attack signature.
	CleanFalsePositives int
}

// RunForensicsSweep measures the capture analyzer's detection and
// false-positive rates across `trials` independent worlds per scenario.
func RunForensicsSweep(seed int64, trials int) (ForensicsSweepResult, error) {
	return RunForensicsSweepWorkers(seed, trials, 0)
}

// RunForensicsSweepWorkers is RunForensicsSweep with an explicit campaign
// worker count. The trials × 3 scenario worlds (attacked victim, attacked
// accessory, innocent pairing) form one flat campaign; the aggregate
// counters are order-independent sums, so the result is bit-identical for
// any worker count.
func RunForensicsSweepWorkers(seed int64, trials, workers int) (ForensicsSweepResult, error) {
	res := ForensicsSweepResult{Trials: trials}
	flagged, err := campaign.Run(context.Background(), trials*3, sweepCfg(workers),
		func(_ context.Context, idx int) (bool, error) {
			i, scenario := idx/3, idx%3
			switch scenario {
			case 0: // Attacked victim.
				tb, err := core.NewTestbed(seed+int64(i)*3, core.TestbedOptions{})
				if err != nil {
					return false, err
				}
				rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
				})
				report, err := analyzeDump(tb.M.Snoop)
				if err != nil {
					return false, err
				}
				return rep.MITMEstablished && report.HasFinding(forensics.FindingPageBlocking), nil
			case 1: // Attacked accessory.
				tb2, err := core.NewTestbed(seed+int64(i)*3+1, core.TestbedOptions{
					ClientPlatform: device.GalaxyS21Android11, Bond: true,
				})
				if err != nil {
					return false, err
				}
				_, extractErr := core.RunLinkKeyExtraction(tb2.Sched, core.LinkKeyExtractionConfig{
					Attacker: tb2.A, Client: tb2.C, Target: tb2.M.Addr(), Channel: core.ChannelHCISnoop,
				})
				report, err := analyzeDump(tb2.C.Snoop)
				if err != nil {
					return false, err
				}
				return extractErr == nil && report.HasFinding(forensics.FindingStalledAuthTimeout), nil
			default: // Innocent pairing.
				tb3, err := core.NewTestbed(seed+int64(i)*3+2, core.TestbedOptions{})
				if err != nil {
					return false, err
				}
				tb3.MUser.ExpectPairing(tb3.C.Addr())
				tb3.M.Host.Pair(tb3.C.Addr(), func(error) {})
				tb3.Sched.RunFor(30 * time.Second)
				report, err := analyzeDump(tb3.M.Snoop)
				if err != nil {
					return false, err
				}
				return report.HasFinding(forensics.FindingPageBlocking) ||
					report.HasFinding(forensics.FindingStalledAuthTimeout), nil
			}
		})
	if err != nil {
		return res, err
	}
	for idx, hit := range flagged {
		if !hit {
			continue
		}
		switch idx % 3 {
		case 0:
			res.PageBlockingDetected++
		case 1:
			res.ExtractionDetected++
		default:
			res.CleanFalsePositives++
		}
	}
	return res, nil
}

// RenderForensicsSweep formats the sweep.
func RenderForensicsSweep(r ForensicsSweepResult) string {
	var b strings.Builder
	b.WriteString("Forensic detector quality (per-scenario trials)\n")
	pct := func(n int) float64 { return 100 * float64(n) / float64(r.Trials) }
	fmt.Fprintf(&b, "  page blocking detected on victim dumps:   %d/%d (%.0f%%)\n",
		r.PageBlockingDetected, r.Trials, pct(r.PageBlockingDetected))
	fmt.Fprintf(&b, "  extraction stall detected on accessories: %d/%d (%.0f%%)\n",
		r.ExtractionDetected, r.Trials, pct(r.ExtractionDetected))
	fmt.Fprintf(&b, "  false positives on clean pairings:        %d/%d (%.0f%%)\n",
		r.CleanFalsePositives, r.Trials, pct(r.CleanFalsePositives))
	return b.String()
}
