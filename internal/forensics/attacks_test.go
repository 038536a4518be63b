package forensics_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	. "repro/internal/forensics"
	"repro/internal/snoop"
)

// Scenario-driven detector tests for the related-attack library: each
// attack is run in the simulator and the victim's own HCI dump is
// analyzed — the paper's methodology applied to the neighbouring
// attacks. Every case also checks live-vs-batch parity: a Detector fed
// record-by-record must produce the same findings Analyze does.

// attackCapture runs one attack scenario and returns the victim-side
// records.
type attackCapture struct {
	name string
	// wantKinds must all be present in the analysis.
	wantKinds []string
	// absentKinds must not be present.
	absentKinds []string
	run         func(t testing.TB) []snoop.Record
}

func attackCaptures() []attackCapture {
	return []attackCapture{
		{
			name:      "stealtooth",
			wantKinds: []string{FindingSilentRepairing, FindingSilentKeyChange},
			run: func(t testing.TB) []snoop.Record {
				tb, err := core.NewTestbed(7, core.TestbedOptions{Bond: true, ClientPlatform: device.AndroidAutomotive})
				if err != nil {
					t.Fatal(err)
				}
				rep := core.RunStealtooth(tb.Sched, core.StealtoothConfig{
					Attacker: tb.A, Client: tb.C,
					VictimAddr: tb.M.Addr(), VictimCOD: tb.M.Platform.COD,
					OriginalKey: tb.BondKey,
				})
				if !rep.RePaired {
					t.Fatalf("attack failed: %+v", rep)
				}
				// Stealtooth's victim is the accessory that re-paired.
				return tb.C.Snoop.Records()
			},
		},
		{
			name:        "happy-mitm",
			wantKinds:   []string{FindingSilentKeyChange},
			absentKinds: []string{FindingKeyTypeDowngrade},
			run: func(t testing.TB) []snoop.Record {
				tb, err := core.NewTestbed(7, core.TestbedOptions{Bond: true, VictimSilentBondedRepair: true})
				if err != nil {
					t.Fatal(err)
				}
				rep := core.RunHappyMitM(tb.Sched, core.HappyMitMConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
					OriginalKey: tb.BondKey,
				})
				if !rep.KeyReplaced {
					t.Fatalf("attack failed: %+v", rep)
				}
				return tb.M.Snoop.Records()
			},
		},
		{
			name:      "blurtooth",
			wantKinds: []string{FindingKeyTypeDowngrade, FindingSilentKeyChange},
			run: func(t testing.TB) []snoop.Record {
				tb, err := core.NewTestbed(7, core.TestbedOptions{
					ClientPlatform:           device.GalaxyS21Android11,
					VictimCTKD:               true,
					VictimSilentBondedRepair: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep := core.RunBLURtooth(tb.Sched, core.BLURtoothConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				})
				if !rep.Downgraded {
					t.Fatalf("attack failed: %+v", rep)
				}
				return tb.M.Snoop.Records()
			},
		},
		{
			// OOB MITM is wire-identical to a genuine OOB pairing: a single
			// fresh pairing, one key notification, nothing to compare
			// against. No rule can flag it, and none may false-positive.
			name: "oob-mitm",
			absentKinds: []string{
				FindingSilentRepairing, FindingSilentKeyChange, FindingKeyTypeDowngrade,
				FindingPageBlocking,
			},
			run: func(t testing.TB) []snoop.Record {
				tb, err := core.NewTestbed(7, core.TestbedOptions{})
				if err != nil {
					t.Fatal(err)
				}
				rep := core.RunOOBMITM(tb.Sched, core.OOBMITMConfig{Attacker: tb.A, Client: tb.C, Victim: tb.M})
				if !rep.MITMEstablished {
					t.Fatalf("attack failed: %+v", rep)
				}
				return tb.M.Snoop.Records()
			},
		},
		{
			name:      "passkey-sniff",
			wantKinds: []string{FindingSilentKeyChange},
			run: func(t testing.TB) []snoop.Record {
				printed := uint32(428571)
				tb, err := core.NewTestbed(7, core.TestbedOptions{ClientFixedPasskey: &printed})
				if err != nil {
					t.Fatal(err)
				}
				sniffer := core.NewAirSniffer(tb.Medium)
				tb.MUser.TypedPasskey = &printed
				rep := core.RunPasskeySniff(tb.Sched, core.PasskeySniffConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
					Sniffer: sniffer, PrintedPasskey: printed,
				})
				if !rep.Impersonated {
					t.Fatalf("attack failed: %+v", rep)
				}
				return tb.M.Snoop.Records()
			},
		},
		{
			// The enhanced-protocol mitigation: the impersonation fails, so
			// the victim's dump holds one legitimate pairing and no
			// key-replacement trace.
			name:        "passkey-guard",
			absentKinds: []string{FindingSilentKeyChange, FindingKeyTypeDowngrade},
			run: func(t testing.TB) []snoop.Record {
				printed := uint32(428571)
				tb, err := core.NewTestbed(7, core.TestbedOptions{ClientFixedPasskey: &printed, EnhancedPasskey: true})
				if err != nil {
					t.Fatal(err)
				}
				sniffer := core.NewAirSniffer(tb.Medium)
				tb.MUser.TypedPasskey = &printed
				rep := core.RunPasskeySniff(tb.Sched, core.PasskeySniffConfig{
					Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
					Sniffer: sniffer, PrintedPasskey: printed,
				})
				if rep.Impersonated {
					t.Fatalf("mitigation failed: %+v", rep)
				}
				return tb.M.Snoop.Records()
			},
		},
	}
}

func TestAttackDetectorRules(t *testing.T) {
	for _, c := range attackCaptures() {
		t.Run(c.name, func(t *testing.T) {
			records := c.run(t)
			if len(records) == 0 {
				t.Fatal("empty victim capture")
			}
			report := Analyze(records)
			for _, kind := range c.wantKinds {
				if !report.HasFinding(kind) {
					t.Errorf("victim dump should show %q:\n%s", kind, report.Render())
				}
			}
			for _, kind := range c.absentKinds {
				if report.HasFinding(kind) {
					t.Errorf("victim dump must not show %q:\n%s", kind, report.Render())
				}
			}
		})
	}
}

// TestAttackLiveBatchParity pushes each attack's victim capture through
// a Detector one record at a time, draining after every push, and
// requires the live event stream to match the batch report finding for
// finding.
func TestAttackLiveBatchParity(t *testing.T) {
	for _, c := range attackCaptures() {
		t.Run(c.name, func(t *testing.T) {
			records := c.run(t)
			batch := Analyze(records)

			d := NewDetector()
			var live []Event
			for _, rec := range records {
				d.Push(rec)
				live = append(live, d.Drain()...)
			}
			if len(live) != len(batch.Findings) {
				t.Fatalf("live emitted %d findings, batch %d", len(live), len(batch.Findings))
			}
			for i, ev := range live {
				bf := batch.Findings[i]
				if ev.Seq != uint64(i+1) {
					t.Fatalf("event %d: seq %d", i, ev.Seq)
				}
				if !eventMatchesFinding(ev.Finding, bf) {
					t.Fatalf("event %d diverges: live %+v batch %+v", i, ev.Finding, bf)
				}
			}
		})
	}
}

// TestAttackCheckpointMidCapture splits each attack capture at the
// midpoint, checkpoints the detector there, restores a fresh one, and
// requires the resumed run's findings to be identical to an unbroken
// run — the v2 codec must carry the new rule state across the gap.
func TestAttackCheckpointMidCapture(t *testing.T) {
	for _, c := range attackCaptures() {
		t.Run(c.name, func(t *testing.T) {
			records := c.run(t)
			unbroken := Analyze(records)

			mid := len(records) / 2
			d1 := NewDetector()
			for _, rec := range records[:mid] {
				d1.Push(rec)
			}
			d1.Drain()
			ckpt, err := d1.SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			d2 := NewDetector()
			if err := d2.RestoreState(ckpt); err != nil {
				t.Fatal(err)
			}
			for _, rec := range records[mid:] {
				d2.Push(rec)
			}
			resumed := d2.Finish()
			if len(resumed.Findings) != len(unbroken.Findings) {
				t.Fatalf("resumed run found %d findings, unbroken %d:\n%s",
					len(resumed.Findings), len(unbroken.Findings), resumed.Render())
			}
			for i, rf := range resumed.Findings {
				uf := unbroken.Findings[i]
				if rf.Kind != uf.Kind || rf.Frame != uf.Frame || rf.Peer != uf.Peer || rf.Detail != uf.Detail {
					t.Fatalf("finding %d diverges after resume: %+v vs %+v", i, rf, uf)
				}
			}
		})
	}
}
