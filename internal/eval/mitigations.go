package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
)

// MitigationRow is one attack/defence pairing of the mitigation matrix.
type MitigationRow struct {
	Attack        string
	Mitigation    string
	Unmitigated   bool // attack succeeds without the defence
	Mitigated     bool // attack still succeeds with the defence
	DefenceWorked bool
}

// RunMitigationMatrixWorkers evaluates each §VII defence (plus the
// post-KNOB hardening) against its attack, with and without the defence
// armed. The six attack×defence worlds (three pairings, armed and
// unarmed) are independent and run as one campaign.
func RunMitigationMatrixWorkers(seed int64, workers int) ([]MitigationRow, error) {
	// 1. Link key extraction vs the snoop link-key filter (§VII-A).
	extraction := func(filter bool) (bool, error) {
		tb, err := core.NewTestbed(seed, core.TestbedOptions{
			ClientPlatform: device.GalaxyS21Android11, Bond: true,
		})
		if err != nil {
			return false, err
		}
		if filter {
			tb.C.Snoop.Filter = core.SnoopLinkKeyFilter
		}
		rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
			Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
		})
		return err == nil && rep.Key == tb.BondKey, nil
	}
	// 2. Page blocking vs the pairing/connection role check (§VII-B).
	pageBlock := func(enforce bool) (bool, error) {
		tb, err := core.NewTestbed(seed+1, core.TestbedOptions{
			VictimEnforceRoleCheck: enforce,
		})
		if err != nil {
			return false, err
		}
		rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
			Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
			UsePLOC: true,
		})
		return rep.MITMEstablished, nil
	}
	// 3. KNOB-style entropy reduction vs a minimum encryption key size.
	knob := func(minKeySize int) (bool, error) {
		var w *core.KNOBWorld
		var err error
		if minKeySize > 1 {
			w, err = core.NewKNOBWorldHardened(seed+2, 1, minKeySize)
		} else {
			w, err = core.NewKNOBWorld(seed+2, 1)
		}
		if err != nil {
			return false, err
		}
		secret := []byte("matrix secret")
		w.Testbed.M.Host.Pair(w.Testbed.C.Addr(), func(err error) {
			if err != nil {
				return
			}
			conn := w.Testbed.M.Host.Connection(w.Testbed.C.Addr())
			w.Testbed.M.Host.Encrypt(conn, func(err error) {
				if err == nil {
					w.Testbed.M.Host.SendData(conn, secret)
				}
			})
		})
		w.Testbed.Sched.RunFor(10 * time.Second)
		_, _, ok := w.BruteForceParallel(secret[:4], 0)
		return ok, nil
	}
	// Six independent worlds: each attack without and with its defence.
	runs := []func() (bool, error){
		func() (bool, error) { return extraction(false) },
		func() (bool, error) { return extraction(true) },
		func() (bool, error) { return pageBlock(false) },
		func() (bool, error) { return pageBlock(true) },
		func() (bool, error) { return knob(1) },
		func() (bool, error) { return knob(7) },
	}
	outcomes, err := campaign.Run(context.Background(), len(runs), sweepCfg(workers),
		func(_ context.Context, i int) (bool, error) { return runs[i]() })
	if err != nil {
		return nil, err
	}

	row := func(attack, mitigation string, unmitigated, mitigated bool) MitigationRow {
		return MitigationRow{
			Attack: attack, Mitigation: mitigation,
			Unmitigated: unmitigated, Mitigated: mitigated,
			DefenceWorked: unmitigated && !mitigated,
		}
	}
	return []MitigationRow{
		row("link key extraction (HCI dump)", "snoop link-key filter (§VII-A)", outcomes[0], outcomes[1]),
		row("page blocking + SSP downgrade", "pairing/connection role check (§VII-B)", outcomes[2], outcomes[3]),
		row("1-byte key brute force (KNOB)", "minimum encryption key size 7", outcomes[4], outcomes[5]),
	}, nil
}

// RenderMitigationMatrix formats the matrix.
func RenderMitigationMatrix(rows []MitigationRow) string {
	var b strings.Builder
	b.WriteString("Mitigation matrix: attack success without/with the defence\n")
	fmt.Fprintf(&b, "%-34s %-42s %-12s %-10s %s\n", "attack", "mitigation", "unmitigated", "mitigated", "defence works")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %-42s %-12s %-10s %s\n", r.Attack, r.Mitigation, yn(r.Unmitigated), yn(r.Mitigated), yn(r.DefenceWorked))
	}
	return b.String()
}
