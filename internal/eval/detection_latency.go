package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/forensics"
)

// DetectionLatencyResult measures how early in a victim's capture the
// incremental detector fires — the quantity that matters for the live
// daemon, where a finding is only actionable while the attack is still
// in progress. Latency is reported as the frame index of the first
// page-blocking finding over the total frames in the dump: a batch
// analyzer is stuck at 1.0 by construction (it reports at EOF), while
// the incremental reducer fires at the frame that completes the
// signature.
type DetectionLatencyResult struct {
	Trials int
	// Detected counts attacked-victim dumps where the page-blocking
	// signature fired at all.
	Detected int
	// MeanFirstFrame is the average frame index (1-based) of the first
	// finding across detected trials.
	MeanFirstFrame float64
	// MeanFrames is the average total frame count of the dumps.
	MeanFrames float64
	// MeanFraction is the average of firstFrame/totalFrames across
	// detected trials — 0.25 means the daemon had the finding with 75%
	// of the capture still to come.
	MeanFraction float64
}

// latencySample is one trial's measurement.
type latencySample struct {
	detected   bool
	firstFrame int
	frames     int
}

// RunDetectionLatencyWorkers runs `trials` attacked-victim worlds and
// measures, for each victim dump, at which frame the incremental
// detector first reports page blocking. The per-trial worlds are
// independent, so the campaign engine fans them out; the aggregate is
// an order-independent mean and identical at any worker count.
func RunDetectionLatencyWorkers(seed int64, trials, workers int) (DetectionLatencyResult, error) {
	res := DetectionLatencyResult{Trials: trials}
	samples, err := campaign.Run(context.Background(), trials, sweepCfg(workers),
		func(_ context.Context, i int) (latencySample, error) {
			tb, err := core.NewTestbed(seed+int64(i), core.TestbedOptions{})
			if err != nil {
				return latencySample{}, err
			}
			rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
			})
			if !rep.MITMEstablished {
				return latencySample{}, nil
			}
			data, err := tb.M.Snoop.Bytes()
			if err != nil {
				return latencySample{}, err
			}
			first, frames, err := firstFinding(data, forensics.FindingPageBlocking)
			if err != nil {
				return latencySample{}, err
			}
			return latencySample{detected: first > 0, firstFrame: first, frames: frames}, nil
		})
	if err != nil {
		return res, err
	}
	var sumFirst, sumFrames, sumFrac float64
	for _, s := range samples {
		if !s.detected {
			continue
		}
		res.Detected++
		sumFirst += float64(s.firstFrame)
		sumFrames += float64(s.frames)
		sumFrac += float64(s.firstFrame) / float64(s.frames)
	}
	if res.Detected > 0 {
		n := float64(res.Detected)
		res.MeanFirstFrame = sumFirst / n
		res.MeanFrames = sumFrames / n
		res.MeanFraction = sumFrac / n
	}
	return res, nil
}

// RunDetectionLatency is RunDetectionLatencyWorkers with default workers.
func RunDetectionLatency(seed int64, trials int) (DetectionLatencyResult, error) {
	return RunDetectionLatencyWorkers(seed, trials, 0)
}

// RenderDetectionLatency formats the sweep.
func RenderDetectionLatency(r DetectionLatencyResult) string {
	var b strings.Builder
	b.WriteString("Live detection latency (attacked victims, incremental detector)\n")
	fmt.Fprintf(&b, "  page blocking detected:   %d/%d trials\n", r.Detected, r.Trials)
	if r.Detected > 0 {
		fmt.Fprintf(&b, "  first finding at frame:   %.1f of %.1f (mean)\n", r.MeanFirstFrame, r.MeanFrames)
		fmt.Fprintf(&b, "  capture position:         %.0f%% (batch analyzer: 100%% by construction)\n",
			100*r.MeanFraction)
	}
	return b.String()
}
