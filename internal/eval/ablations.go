package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/host"
	"repro/internal/radio"
)

// Ablation studies for the design choices DESIGN.md calls out. All
// sweeps run on the campaign engine; see the package comment for the
// determinism contract.

// JitterAblationRow gives the baseline MITM success rate for one page
// response jitter spread.
type JitterAblationRow struct {
	JitterMin, JitterMax time.Duration
	Trials               int
	AttackerWins         int
	// Failures counts trials whose testbed could not even be built.
	// They are reported explicitly instead of silently shrinking the
	// denominator: Pct stays over Trials, so a failure counts against
	// the attacker rather than vanishing.
	Failures int
}

// Pct returns the attacker's win rate in percent.
func (r JitterAblationRow) Pct() float64 { return 100 * float64(r.AttackerWins) / float64(r.Trials) }

// jitterOutcome is one trial's verdict: the attacker won, or the trial's
// world could not be constructed.
type jitterOutcome struct {
	win    bool
	failed bool
}

// RunJitterAblationWorkers sweeps the page-response jitter spread. With
// zero spread the race collapses to a deterministic tie-break; any
// positive spread restores the ~50% race the paper measured at 42-60%.
// The spreads × trials grid runs as one flat campaign.
func RunJitterAblationWorkers(seed int64, trials int, spreads []time.Duration, workers int) []JitterAblationRow {
	n := len(spreads) * trials
	// Testbed construction errors are folded into the outcome (counted
	// per row), so the trial function never errors and the campaign
	// always yields the full grid.
	outcomes, _ := campaign.Run(context.Background(), n, sweepCfg(workers),
		func(_ context.Context, i int) (jitterOutcome, error) {
			spread, trial := spreads[i/trials], i%trials
			cfg := radio.DefaultConfig()
			cfg.ResponseJitterMin = 10 * time.Millisecond
			cfg.ResponseJitterMax = cfg.ResponseJitterMin + spread
			tb, err := core.NewTestbed(deviceSeed(seed, spread.String(), trial), core.TestbedOptions{
				MediumConfig: &cfg,
			})
			if err != nil {
				return jitterOutcome{failed: true}, nil
			}
			rep := core.RunBaselineMITM(tb.Sched, core.BaselineMITMConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
			})
			return jitterOutcome{win: rep.MITMEstablished}, nil
		})

	rows := make([]JitterAblationRow, 0, len(spreads))
	for si, spread := range spreads {
		row := JitterAblationRow{
			JitterMin: 10 * time.Millisecond,
			JitterMax: 10*time.Millisecond + spread,
			Trials:    trials,
		}
		for t := 0; t < trials; t++ {
			switch o := outcomes[si*trials+t]; {
			case o.failed:
				row.Failures++
			case o.win:
				row.AttackerWins++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// PLOCWindowRow reports page blocking success for one user pairing delay
// under link supervision.
type PLOCWindowRow struct {
	UserPairDelay time.Duration
	KeepAlive     bool
	Success       bool
}

// RunPLOCWindowAblationWorkers sweeps the delay between PLOC
// establishment and the victim's pairing intent, with the victim's
// controller enforcing a 20 s link supervision timeout. Without
// keep-alive traffic the held link dies once the supervision window
// passes and the attack degenerates to the ~50% page race (the attacker
// is still page-scanning with the spoofed address); with dummy-data
// keep-alive (the paper's SDP-ping suggestion) the deterministic window
// extends indefinitely.
//
// A testbed construction failure is propagated (it used to be swallowed,
// silently dropping rows and shifting the callers' row indices).
func RunPLOCWindowAblationWorkers(seed int64, delays []time.Duration, workers int) ([]PLOCWindowRow, error) {
	const supervision = 20 * time.Second
	n := 2 * len(delays) // keep-alive off, then on — the serial row order
	return campaign.Run(context.Background(), n, sweepCfg(workers),
		func(_ context.Context, idx int) (PLOCWindowRow, error) {
			keepAlive := idx >= len(delays)
			i := idx % len(delays)
			d := delays[i]
			tb, err := core.NewTestbed(seed+int64(i)*31+boolSeed(keepAlive), core.TestbedOptions{
				VictimSupervisionTimeout: supervision,
			})
			if err != nil {
				return PLOCWindowRow{}, fmt.Errorf("eval: PLOC window testbed (delay %v, keep-alive %v): %w", d, keepAlive, err)
			}
			cfg := core.PageBlockingConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				UsePLOC:       true,
				PLOCHold:      10 * time.Second,
				UserPairDelay: d,
				SettleTime:    d + 90*time.Second,
			}
			if keepAlive {
				cfg.KeepAlive = 5 * time.Second
			}
			rep := core.RunPageBlocking(tb.Sched, cfg)
			return PLOCWindowRow{UserPairDelay: d, KeepAlive: keepAlive, Success: rep.MITMEstablished}, nil
		})
}

func boolSeed(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// StallAblationRow contrasts the two ways the attacker could answer the
// controller's link key request during the extraction attack.
type StallAblationRow struct {
	Strategy string
	// KeyLogged reports that the client's dump captured the bonded key.
	KeyLogged bool
	// ClientBondIntact reports that the client still holds the original
	// key for M afterwards (the stealth property).
	ClientBondIntact bool
	// DisconnectReason is what the client saw.
	DisconnectReason hci.Status
}

// RunStallAblation compares the paper's stall (Fig. 9: never answer the
// link key request, forcing an LMP response timeout) against the naive
// alternative of sending a negative reply. The negative reply avoids an
// authentication failure too — but it triggers a fresh SSP pairing that
// overwrites the client's bonded key for M, destroying the very key the
// attack needs and leaving forensic traces. The two strategy worlds are
// independent and run as a two-trial campaign.
func RunStallAblation(seed int64) ([]StallAblationRow, error) {
	return campaign.Run(context.Background(), 2, sweepCfg(0),
		func(_ context.Context, i int) (StallAblationRow, error) {
			if i == 0 {
				return runStallStrategy(seed)
			}
			return runNegativeReplyStrategy(seed + 1)
		})
}

// runStallStrategy is the attack as published: the client is an Android
// device with the snoop log enabled, and the attacker ignores the link
// key request.
func runStallStrategy(seed int64) (StallAblationRow, error) {
	tb, err := core.NewTestbed(seed, core.TestbedOptions{
		ClientPlatform: device.GalaxyS8Android9,
		Bond:           true,
	})
	if err != nil {
		return StallAblationRow{}, err
	}
	origKey := tb.BondKey
	rep, _ := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
		Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
	})
	bond := tb.C.Host.Bonds().Get(tb.M.Addr())
	return StallAblationRow{
		Strategy:         "stall (ignore link key request)",
		KeyLogged:        rep.Found && rep.Key == origKey,
		ClientBondIntact: bond != nil && bond.Key == origKey,
		DisconnectReason: rep.DisconnectReason,
	}, nil
}

// runNegativeReplyStrategy is the naive alternative.
func runNegativeReplyStrategy(seed int64) (StallAblationRow, error) {
	tb2, err := core.NewTestbed(seed, core.TestbedOptions{
		ClientPlatform: device.GalaxyS8Android9,
		Bond:           true,
	})
	if err != nil {
		return StallAblationRow{}, err
	}
	origKey2 := tb2.BondKey
	tb2.A.SpoofIdentity(tb2.M.Addr(), tb2.M.Platform.COD)
	// No IgnoreLinkKeyRequest hook: A's host has no bond for C, so it
	// answers the link key request negatively, and C falls back to a new
	// SSP pairing with the impostor.
	tb2.A.Host.Connect(tb2.C.Addr(), func(*host.Conn, error) {})
	tb2.Sched.RunFor(60 * time.Second)

	var logged bool
	for _, e := range forensics.Analyze(tb2.C.Snoop.Records()).Exposures {
		if e.Key == origKey2 {
			logged = true
		}
	}
	bond2 := tb2.C.Host.Bonds().Get(tb2.M.Addr())
	row := StallAblationRow{
		Strategy:         "negative reply (naive)",
		KeyLogged:        logged,
		ClientBondIntact: bond2 != nil && bond2.Key == origKey2,
	}
	for _, d := range tb2.C.Host.Disconnects {
		if d.Addr == tb2.M.Addr() {
			row.DisconnectReason = d.Reason
		}
	}
	return row, nil
}

// LMPTimeoutRow gives extraction timing as a function of the client's LMP
// response timeout.
type LMPTimeoutRow struct {
	Timeout time.Duration
	Found   bool
	Elapsed time.Duration
	Reason  hci.Status
}

// RunLMPTimeoutAblationWorkers sweeps the client controller's LMP
// response timeout: the extraction always works, and the attack duration
// tracks the timeout (the stalled challenge is the only long pole).
func RunLMPTimeoutAblationWorkers(seed int64, timeouts []time.Duration, workers int) ([]LMPTimeoutRow, error) {
	return campaign.Run(context.Background(), len(timeouts), sweepCfg(workers),
		func(_ context.Context, i int) (LMPTimeoutRow, error) {
			to := timeouts[i]
			tb, err := core.NewTestbed(seed+int64(i)*17, core.TestbedOptions{
				ClientPlatform:           device.GalaxyS8Android9,
				Bond:                     true,
				ClientLMPResponseTimeout: to,
			})
			if err != nil {
				return LMPTimeoutRow{}, err
			}
			rep, _ := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
				Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
				SettleTime: to + 10*time.Second,
			})
			return LMPTimeoutRow{Timeout: to, Found: rep.Found, Elapsed: rep.Elapsed, Reason: rep.DisconnectReason}, nil
		})
}
