// Package scenario is the registry of simulated scenarios: the paper's
// own attacks (§IV link key extraction, §V page blocking), the pairings
// they start from, and the related-attack library (Stealtooth, Happy
// MitM, BLURtooth, OOB MITM, passkey sniffing and its mitigation).
//
// Each entry has exactly one run body. cmd/btsim runs it once for a
// capture or many times for a -repeat campaign, and eval's cross-attack
// matrix runs it per trial, so a scenario cannot drift between them.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/forensics"
)

// PrintedPasskey is the fixed label value the passkey scenarios pin on
// the accessory's display side.
const PrintedPasskey uint32 = 428571

// Outcome is what one run of a scenario produced.
type Outcome struct {
	// OK reports that the scenario reached its goal. For passkey-guard
	// this is the attack's success against the mitigation, so a healthy
	// build reports false.
	OK bool
	// Victim is the device whose own HCI dump carries the scenario's
	// trace; nil when the scenario attacks nobody.
	Victim *device.Device
	// Line is the one-line human report of the run.
	Line string
}

// Entry is one registered scenario.
type Entry struct {
	Name    string
	Summary string
	// Options builds the testbed options for a world under plan.
	Options func(plan faults.Plan) core.TestbedOptions
	// Run executes the scenario against a fresh testbed built from
	// Options. Attachments that must precede traffic (air sniffers)
	// happen here: Run is called before the scheduler moves. An error
	// that core.IsChannelFault accepts is worth a retry; any other error
	// is a failed run.
	Run func(tb *core.Testbed) (Outcome, error)
	// Rule is the forensics.Finding* kind a successful run leaves in the
	// victim's dump; "" when the scenario is wire-indistinguishable from
	// a legitimate exchange, or attacks nobody.
	Rule string
}

// Lookup returns the entry called name.
func Lookup(name string) (Entry, bool) {
	for _, e := range entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the registered names in registry order.
func Names() []string {
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// entries is the registry, in help-text order.
var entries = []Entry{
	{
		Name:    "pair",
		Summary: "fresh SSP pairing between phone and accessory",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			pairErr := fmt.Errorf("pairing never completed")
			tb.MUser.ExpectPairing(tb.C.Addr())
			tb.M.Host.Pair(tb.C.Addr(), func(err error) { pairErr = err })
			tb.Sched.RunFor(30 * time.Second)
			if pairErr != nil {
				// %v, not %w: the pairing is what a trial measures, so a
				// channel fault that breaks it fails the trial instead of
				// earning a retry.
				return Outcome{}, fmt.Errorf("pairing failed: %v", pairErr)
			}
			key := tb.M.Host.Bonds().Get(tb.C.Addr()).Key
			return Outcome{OK: true, Line: fmt.Sprintf("paired; link key %s", key)}, nil
		},
	},
	{
		Name:    "bond-reconnect",
		Summary: "bonded reconnect with the stored link key",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Bond: true, Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			reconnectErr := fmt.Errorf("reconnect never completed")
			tb.M.Host.Pair(tb.C.Addr(), func(err error) { reconnectErr = err })
			tb.Sched.RunFor(30 * time.Second)
			if reconnectErr != nil {
				// %v, not %w: as for pair, the reconnect is the outcome.
				return Outcome{}, fmt.Errorf("reconnect failed: %v", reconnectErr)
			}
			return Outcome{OK: true, Line: fmt.Sprintf("reconnected with stored key %s", tb.BondKey)}, nil
		},
	},
	{
		Name:    "extraction",
		Summary: "link key extraction from the client's HCI snoop channel",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Bond: true, Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
				Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
			})
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{
				OK: rep.Key == tb.BondKey, Victim: tb.C,
				Line: fmt.Sprintf("extracted %s (client disconnect: %s)", rep.Key, rep.DisconnectReason),
			}, nil
		},
		Rule: forensics.FindingStalledAuthTimeout,
	},
	{
		Name:    "pageblock",
		Summary: "page blocking MITM against the victim phone",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				UsePLOC: true, RunInquiry: true,
			})
			return Outcome{
				OK: rep.MITMEstablished, Victim: tb.M,
				Line: fmt.Sprintf("page blocking MITM established: %v", rep.MITMEstablished),
			}, nil
		},
		Rule: forensics.FindingPageBlocking,
	},
	{
		Name:    "stealtooth",
		Summary: "silent automatic re-pairing of the bonded accessory (Stealtooth)",
		Options: func(plan faults.Plan) core.TestbedOptions {
			// The accessory is the victim: it must carry its own snoop
			// channel.
			return core.TestbedOptions{ClientPlatform: device.AndroidAutomotive, Bond: true, Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep := core.RunStealtooth(tb.Sched, core.StealtoothConfig{
				Attacker: tb.A, Client: tb.C,
				VictimAddr: tb.M.Addr(), VictimCOD: tb.M.Platform.COD,
				OriginalKey: tb.BondKey,
			})
			return Outcome{
				OK: rep.RePaired && rep.KeyChanged, Victim: tb.C,
				Line: fmt.Sprintf("stealtooth: re-paired=%v key-changed=%v client-prompts=%d",
					rep.RePaired, rep.KeyChanged, rep.ClientPrompts),
			}, nil
		},
		Rule: forensics.FindingSilentRepairing,
	},
	{
		Name:    "happy-mitm",
		Summary: "accepted-key UI blindness: silent bonded key replacement (Happy MitM)",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{
				ClientPlatform: device.GalaxyS21Android11, Bond: true,
				VictimSilentBondedRepair: true, Faults: plan,
			}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep := core.RunHappyMitM(tb.Sched, core.HappyMitMConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
				OriginalKey: tb.BondKey,
			})
			return Outcome{
				OK: rep.KeyReplaced, Victim: tb.M,
				Line: fmt.Sprintf("happy-mitm: reconnected=%v key-replaced=%v attack-prompts=%d",
					rep.Reconnected, rep.KeyReplaced, rep.AttackPrompts),
			}, nil
		},
		Rule: forensics.FindingSilentKeyChange,
	},
	{
		Name:    "blurtooth",
		Summary: "cross-transport CTKD downgrade of the derived LE key (BLURtooth)",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{
				ClientPlatform: device.GalaxyS21Android11,
				VictimCTKD:     true, VictimSilentBondedRepair: true, Faults: plan,
			}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep := core.RunBLURtooth(tb.Sched, core.BLURtoothConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
			})
			return Outcome{
				OK: rep.Downgraded, Victim: tb.M,
				Line: fmt.Sprintf("blurtooth: legit-paired=%v ltk-was-authenticated=%v downgraded=%v",
					rep.LegitPaired, rep.LTKWasAuthenticated, rep.Downgraded),
			}, nil
		},
		Rule: forensics.FindingKeyTypeDowngrade,
	},
	{
		Name:    "oob-mitm",
		Summary: "tampered-NFC-tag MITM over Out of Band association",
		Options: func(plan faults.Plan) core.TestbedOptions {
			return core.TestbedOptions{Faults: plan}
		},
		Run: func(tb *core.Testbed) (Outcome, error) {
			rep := core.RunOOBMITM(tb.Sched, core.OOBMITMConfig{
				Attacker: tb.A, Client: tb.C, Victim: tb.M,
			})
			return Outcome{
				OK: rep.MITMEstablished, Victim: tb.M,
				Line: fmt.Sprintf("oob-mitm: payloads-installed=%v mitm-established=%v key-authenticated=%v",
					rep.PayloadsInstalled, rep.MITMEstablished, rep.KeyAuthenticated),
			}, nil
		},
		// No rule: the exchange is wire-identical to a genuine OOB
		// pairing.
	},
	{
		Name:    "passkey-sniff",
		Summary: "passive passkey recovery from one sniffed session, then impersonation",
		Options: func(plan faults.Plan) core.TestbedOptions {
			printed := PrintedPasskey
			return core.TestbedOptions{ClientFixedPasskey: &printed, Faults: plan}
		},
		Run:  runPasskeySniff,
		Rule: forensics.FindingSilentKeyChange,
	},
	{
		Name:    "passkey-guard",
		Summary: "same sniff against the enhanced passkey protocol (mitigation)",
		Options: func(plan faults.Plan) core.TestbedOptions {
			printed := PrintedPasskey
			return core.TestbedOptions{ClientFixedPasskey: &printed, EnhancedPasskey: true, Faults: plan}
		},
		Run: runPasskeySniff,
		// No rule: the attack never completes, so there is no trace.
	},
}

// runPasskeySniff is shared by passkey-sniff and passkey-guard; the
// testbed options (EnhancedPasskey) are the only difference.
func runPasskeySniff(tb *core.Testbed) (Outcome, error) {
	sniffer := core.NewAirSniffer(tb.Medium)
	printed := PrintedPasskey
	tb.MUser.TypedPasskey = &printed
	rep := core.RunPasskeySniff(tb.Sched, core.PasskeySniffConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
		Sniffer: sniffer, PrintedPasskey: printed,
	})
	return Outcome{
		OK: rep.Impersonated, Victim: tb.M,
		Line: fmt.Sprintf("passkey: legit-paired=%v recovered=%v recovery-correct=%v impersonated=%v",
			rep.LegitPaired, rep.Recovered, rep.RecoveryCorrect, rep.Impersonated),
	}, nil
}
