// Command benchtables regenerates every table and figure of the paper's
// evaluation from the simulator, plus the ablation studies. With no flags
// it runs everything.
//
//	benchtables -table1 -table2 -trials 100
//	benchtables -figs
//	benchtables -ablations
//	benchtables -workers 8 -table2          # parallel campaign, same rows
//
// The -workers flag sets the campaign engine's worker count for every
// sweep (0 = GOMAXPROCS). Results are bit-identical at any worker count;
// see internal/campaign. Performance numbers come from bash
// bench/run.sh, and the campaign acceptance rules are go test
// ./internal/eval.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/eval"
	"repro/internal/snoop"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "base random seed")
		trials      = flag.Int("trials", 100, "trials per device for Table II")
		table1      = flag.Bool("table1", false, "run Table I (link key extraction)")
		table2      = flag.Bool("table2", false, "run Table II (MITM success rates)")
		figs        = flag.Bool("figs", false, "run figure reproductions (2, 3, 7, 11, 12)")
		ablations   = flag.Bool("ablations", false, "run ablation studies")
		mitigations = flag.Bool("mitigations", false, "run the mitigation matrix")
		degraded    = flag.Bool("degraded", false, "run the degraded-channel sweep")
		attacks     = flag.Bool("attacks", false, "run the cross-attack matrix (related-attack library)")
		workers     = flag.Int("workers", 0, "campaign workers (0 = GOMAXPROCS)")
		progress    = flag.Bool("progress", false, "report live campaign progress (trials/sec, retries, ETA) on stderr")
		synth       = flag.String("synth", "", "write a synthetic btsnoop capture (for pipeline smoke tests) to this path and exit")
		synthN      = flag.Int("synthrecords", 1_000_000, "with -synth: capture size in records")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}

	if *synth != "" {
		f, err := os.Create(*synth)
		if err != nil {
			fail(err)
		}
		stats, err := snoop.Synthesize(f, snoop.SynthConfig{Records: *synthN, Seed: *seed})
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fail(err)
		}
		if stats.KeyExposures == 0 || stats.BlockedSessions == 0 {
			fail(fmt.Errorf("synthetic capture lost its attack signatures (seed %d)", *seed))
		}
		fmt.Printf("wrote %s: %d records, %d bytes, %d key exposures, %d blocked sessions\n",
			*synth, stats.Records, stats.Bytes, stats.KeyExposures, stats.BlockedSessions)
		return
	}

	if *progress {
		// One sink spans every sweep this invocation runs; the engine
		// guarantees the rows are identical with or without it.
		p := &campaign.Progress{}
		eval.SetProgress(p)
		stop := p.Report(os.Stderr, 500*time.Millisecond)
		defer stop()
	}

	all := !*table1 && !*table2 && !*figs && !*ablations && !*mitigations && !*degraded && !*attacks

	if *table1 || all {
		rows, err := eval.RunTableIWorkers(*seed, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderTableI(rows))
	}

	if *table2 || all {
		rows, err := eval.RunTableIIWorkers(*seed, *trials, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderTableII(rows))
	}

	if *figs || all {
		res, err := eval.RunAllFigures(*seed, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println("FIG 2a: fresh pairing HCI flow (victim side)")
		for _, n := range res.Fig2.FreshPairing {
			fmt.Println("  ", n)
		}
		fmt.Println("FIG 2b: bonded re-authentication HCI flow")
		for _, n := range res.Fig2.BondedReauth {
			fmt.Println("  ", n)
		}
		fmt.Println()

		fmt.Println("FIG 3: link key in an HCI dump")
		fmt.Printf("  key: %s (matches bond: %v, frame %d via %s)\n",
			res.Fig3.Key, res.Fig3.MatchesBond, res.Fig3.Hit.Frame, res.Fig3.Hit.Source)
		fmt.Printf("  packet: %s\n\n", res.Fig3.PacketHex)

		fmt.Println("FIG 7: IO capability mapping")
		fmt.Println(res.Fig7.V42)
		fmt.Println(res.Fig7.V50)

		fmt.Println("FIG 11: link key via USB sniff (C) vs HCI dump (M)")
		fmt.Printf("  USB:   %s (hex offset %d)\n", res.Fig11.USBKey, res.Fig11.USBOffset)
		fmt.Printf("  dump:  %s\n  match: %v\n\n", res.Fig11.SnoopKey, res.Fig11.Match)

		fmt.Println("FIG 12a: HCI dump for normal pairing")
		fmt.Println(res.Fig12.NormalPairing)
		fmt.Println("FIG 12b: HCI dump for pairing under page blocking attack")
		fmt.Println(res.Fig12.PageBlocked)
		fmt.Printf("page blocking signature present: %v\n\n", res.Fig12.Signature)
	}

	if *mitigations || all {
		rows, err := eval.RunMitigationMatrixWorkers(*seed, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderMitigationMatrix(rows))

		sweep, err := eval.RunForensicsSweepWorkers(*seed, 10, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderForensicsSweep(sweep))

		lat, err := eval.RunDetectionLatencyWorkers(*seed, 10, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderDetectionLatency(lat))
	}

	if *ablations || all {
		jrows := eval.RunJitterAblationWorkers(*seed, 40, []time.Duration{
			0, 5 * time.Millisecond, 30 * time.Millisecond, 120 * time.Millisecond,
		}, *workers)
		fmt.Println(eval.RenderJitterAblation(jrows))

		prows, err := eval.RunPLOCWindowAblationWorkers(*seed, []time.Duration{
			5 * time.Second, 15 * time.Second, 25 * time.Second, 40 * time.Second,
		}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderPLOCWindow(prows))

		srows, err := eval.RunStallAblation(*seed)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderStallAblation(srows))

		trows, err := eval.RunLMPTimeoutAblationWorkers(*seed, []time.Duration{
			time.Second, 5 * time.Second, 30 * time.Second,
		}, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderLMPTimeout(trows))
	}

	if *degraded || all {
		trials := *trials
		if trials > 25 {
			// Each degraded setting runs three full campaigns; cap the
			// default Table II trial count at something proportionate.
			trials = 25
		}
		rows, err := eval.RunDegradedSweepWorkers(*seed, trials, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderDegraded(rows))
	}

	if *attacks || all {
		trials := *trials
		if trials > 25 {
			// Twelve cells, each a full campaign of simulated worlds.
			trials = 25
		}
		rows, err := eval.RunAttackMatrixWorkers(*seed, trials, *workers)
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderAttackMatrix(rows))
	}
}
