package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/hci"
	"repro/internal/host"
	"repro/internal/snoop"
)

func mustTestbed(t *testing.T, seed int64, opts TestbedOptions) *Testbed {
	t.Helper()
	tb, err := NewTestbed(seed, opts)
	if err != nil {
		t.Fatalf("building testbed: %v", err)
	}
	return tb
}

func TestLinkKeyExtractionViaSnoop(t *testing.T) {
	// C is an Android phone with the snoop log enabled, as in Table I.
	tb := mustTestbed(t, 10, TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11,
		Bond:           true,
	})
	rep, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelHCISnoop,
	})
	if err != nil {
		t.Fatalf("extraction failed: %v (report %+v)", err, rep)
	}
	if rep.Key != tb.BondKey {
		t.Fatalf("extracted key %s != bonded key %s", rep.Key, tb.BondKey)
	}
	if rep.DisconnectReason != hci.StatusLMPResponseTimeout {
		t.Fatalf("client disconnect reason = %s, want LMP Response Timeout", rep.DisconnectReason)
	}
	if !rep.ClientKeptBond {
		t.Fatal("client lost its bond — the stealthy stall failed")
	}
}

func TestLinkKeyExtractionViaUSBSniff(t *testing.T) {
	// C is a Windows 10 PC with a USB dongle, sniffed by a bus analyzer.
	tb := mustTestbed(t, 11, TestbedOptions{
		ClientPlatform:   device.Windows10MSDriver,
		ClientUSBSniffer: true,
		Bond:             true,
	})
	rep, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelUSBSniff,
	})
	if err != nil {
		t.Fatalf("extraction failed: %v (report %+v)", err, rep)
	}
	if rep.Key != tb.BondKey {
		t.Fatalf("extracted key %s != bonded key %s", rep.Key, tb.BondKey)
	}
	if !rep.ClientKeptBond {
		t.Fatal("client lost its bond")
	}
}

func TestExtractionDefeatedBySnoopFilter(t *testing.T) {
	tb := mustTestbed(t, 12, TestbedOptions{
		ClientPlatform: device.Pixel2XLAndroid11,
		Bond:           true,
	})
	// §VII-A mitigation: the dump filters link-key payloads.
	tb.C.Snoop.Filter = SnoopLinkKeyFilter

	_, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelHCISnoop,
	})
	if !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("filtered dump should hide the key; got err=%v", err)
	}
}

func TestImpersonationWithExtractedKey(t *testing.T) {
	tb := mustTestbed(t, 13, TestbedOptions{
		ClientPlatform: device.LGV50Android9,
		Bond:           true,
	})
	ext, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelHCISnoop,
	})
	if err != nil {
		t.Fatalf("extraction: %v", err)
	}

	imp := RunImpersonation(tb.Sched, ImpersonationConfig{
		Attacker:   tb.A,
		Victim:     tb.M,
		ClientAddr: tb.C.Addr(),
		Key:        ext.Key,
	})
	if !imp.Success {
		t.Fatalf("impersonation failed: %+v", imp)
	}
	if !imp.AuthSucceeded {
		t.Fatal("LMP authentication with the extracted key failed")
	}
	if imp.NewPairingTriggered {
		t.Fatal("a new pairing was triggered — the key should have sufficed")
	}
	if imp.FakeBondConfig == "" {
		t.Fatal("missing fake bt_config.conf document")
	}
}

func TestImpersonationWithWrongKeyFails(t *testing.T) {
	tb := mustTestbed(t, 14, TestbedOptions{Bond: true})
	wrong := tb.BondKey
	wrong[0] ^= 0xFF
	imp := RunImpersonation(tb.Sched, ImpersonationConfig{
		Attacker:   tb.A,
		Victim:     tb.M,
		ClientAddr: tb.C.Addr(),
		Key:        wrong,
	})
	if imp.Success {
		t.Fatal("impersonation with a wrong key must fail")
	}
	if imp.AuthSucceeded {
		t.Fatal("LMP authentication must fail with a wrong key")
	}
}

func TestPageBlockingIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		tb := mustTestbed(t, 100+seed, TestbedOptions{})
		rep := RunPageBlocking(tb.Sched, PageBlockingConfig{
			Attacker:   tb.A,
			Client:     tb.C,
			Victim:     tb.M,
			VictimUser: tb.MUser,
			UsePLOC:    true,
			RunInquiry: true,
		})
		if !rep.MITMEstablished {
			t.Fatalf("seed %d: MITM not established: %+v", seed, rep)
		}
		if rep.PairedWithClient {
			t.Fatalf("seed %d: victim paired with the genuine client", seed)
		}
		if !rep.DowngradedToJustWorks {
			t.Fatalf("seed %d: pairing was not downgraded to Just Works", seed)
		}
		if !rep.VictimWasConnectionResponder || !rep.VictimWasPairingInitiator {
			t.Fatalf("seed %d: missing Fig. 12b role signature: %+v", seed, rep)
		}
	}
}

func TestPageBlockingRoleMitigationDetects(t *testing.T) {
	tb := mustTestbed(t, 21, TestbedOptions{})
	rep := RunPageBlocking(tb.Sched, PageBlockingConfig{
		Attacker:   tb.A,
		Client:     tb.C,
		Victim:     tb.M,
		VictimUser: tb.MUser,
		UsePLOC:    true,
	})
	if !rep.MITMEstablished {
		t.Fatalf("attack should succeed before detection: %+v", rep)
	}
	verdict := CheckPairingRoles(tb.M.Host.Connection(tb.C.Addr()))
	if !verdict.Suspicious {
		t.Fatalf("§VII-B detector missed the attack: %+v", verdict)
	}
}

func TestRoleMitigationPassesNormalPairing(t *testing.T) {
	tb := mustTestbed(t, 22, TestbedOptions{})
	tb.MUser.ExpectPairing(tb.C.Addr())
	done := false
	tb.M.Host.Pair(tb.C.Addr(), func(err error) {
		if err != nil {
			t.Errorf("normal pairing failed: %v", err)
		}
		done = true
	})
	tb.Sched.RunFor(30 * time.Second)
	if !done {
		t.Fatal("normal pairing never completed")
	}
	verdict := CheckPairingRoles(tb.M.Host.Connection(tb.C.Addr()))
	if verdict.Suspicious {
		t.Fatalf("detector flagged a normal pairing: %+v", verdict)
	}
}

func TestBaselineRaceIsRoughlyEven(t *testing.T) {
	const trials = 60
	wins := 0
	clientWins := 0
	for seed := int64(0); seed < trials; seed++ {
		tb := mustTestbed(t, 1000+seed, TestbedOptions{})
		rep := RunBaselineMITM(tb.Sched, BaselineMITMConfig{
			Attacker:   tb.A,
			Client:     tb.C,
			Victim:     tb.M,
			VictimUser: tb.MUser,
		})
		if rep.MITMEstablished {
			wins++
		}
		if rep.PairedWithClient {
			clientWins++
		}
		if rep.MITMEstablished && rep.PairedWithClient {
			t.Fatalf("seed %d: both sides cannot win", seed)
		}
	}
	if wins+clientWins != trials {
		t.Fatalf("%d trials but %d wins + %d client wins", trials, wins, clientWins)
	}
	// The paper observed 42-60%; with 60 trials allow a generous band
	// around the theoretical 50%.
	if wins < trials*25/100 || wins > trials*75/100 {
		t.Fatalf("baseline success %d/%d falls outside the expected band", wins, trials)
	}
}

func TestNoPLOCAttackerIsUnreliable(t *testing.T) {
	const trials = 12
	wins := 0
	sawUnexpectedPrompt := false
	for seed := int64(0); seed < trials; seed++ {
		tb := mustTestbed(t, 2000+seed, TestbedOptions{})
		rep := RunPageBlocking(tb.Sched, PageBlockingConfig{
			Attacker:      tb.A,
			Client:        tb.C,
			Victim:        tb.M,
			VictimUser:    tb.MUser,
			UsePLOC:       false,
			UserPairDelay: 6 * time.Second,
		})
		if rep.MITMEstablished {
			wins++
		}
		for _, p := range rep.VictimPrompts {
			if !p.Expected && !p.Accepted {
				sawUnexpectedPrompt = true
			}
		}
	}
	if wins == trials {
		t.Fatalf("attacker without PLOC succeeded %d/%d — should be unreliable", wins, trials)
	}
	if !sawUnexpectedPrompt {
		t.Fatal("the premature pairing should have shown an unexpected popup at least once")
	}
}

func TestFig12SequencesDiffer(t *testing.T) {
	// Normal pairing: Create_Connection then Authentication_Requested.
	normal := mustTestbed(t, 30, TestbedOptions{})
	normal.MUser.ExpectPairing(normal.C.Addr())
	normal.M.Host.Pair(normal.C.Addr(), func(error) {})
	normal.Sched.RunFor(30 * time.Second)
	normalNames := snoop.CommandEventNames(snoop.Summarize(normal.M.Snoop.Records()))
	if !contains(normalNames, "HCI_Create_Connection") {
		t.Fatalf("normal trace lacks HCI_Create_Connection: %v", normalNames)
	}
	if contains(normalNames, "HCI_Connection_Request") {
		t.Fatalf("normal trace must not contain HCI_Connection_Request: %v", normalNames)
	}

	// Page-blocked pairing: Connection_Request + Accept, then the victim
	// still issues Authentication_Requested (Fig. 12b).
	blocked := mustTestbed(t, 31, TestbedOptions{})
	rep := RunPageBlocking(blocked.Sched, PageBlockingConfig{
		Attacker:   blocked.A,
		Client:     blocked.C,
		Victim:     blocked.M,
		VictimUser: blocked.MUser,
		UsePLOC:    true,
	})
	if !rep.MITMEstablished {
		t.Fatalf("attack failed: %+v", rep)
	}
	blockedNames := snoop.CommandEventNames(snoop.Summarize(blocked.M.Snoop.Records()))
	for _, want := range []string{
		"HCI_Connection_Request",
		"HCI_Accept_Connection_Request",
		"HCI_Authentication_Requested",
		"HCI_Link_Key_Request",
		"HCI_Link_Key_Request_Negative_Reply",
		"HCI_IO_Capability_Request",
	} {
		if !contains(blockedNames, want) {
			t.Fatalf("page-blocked trace lacks %s: %v", want, blockedNames)
		}
	}
	if contains(blockedNames, "HCI_Create_Connection") {
		t.Fatalf("page-blocked victim must not page: %v", blockedNames)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestExtractionRequiresBond(t *testing.T) {
	tb := mustTestbed(t, 40, TestbedOptions{}) // no bond
	_, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelHCISnoop,
	})
	if !errors.Is(err, ErrNoBond) {
		t.Fatalf("want ErrNoBond, got %v", err)
	}
}

func TestExtractionRequiresCaptureSurface(t *testing.T) {
	tb := mustTestbed(t, 41, TestbedOptions{
		ClientPlatform: device.Windows10CSRHarmony, // no snoop, no sniffer attached
		Bond:           true,
	})
	_, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelHCISnoop,
	})
	if !errors.Is(err, ErrNoCapture) {
		t.Fatalf("want ErrNoCapture for snoop, got %v", err)
	}
	_, err = RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
		Attacker: tb.A,
		Client:   tb.C,
		Target:   tb.M.Addr(),
		Channel:  ChannelUSBSniff,
	})
	if !errors.Is(err, ErrNoCapture) {
		t.Fatalf("want ErrNoCapture for USB, got %v", err)
	}
	_ = host.UUIDNAP // keep host import for future assertions
}

func TestExtractionChannelStrings(t *testing.T) {
	if ChannelHCISnoop.String() != "HCI dump" || ChannelUSBSniff.String() != "USB sniff" {
		t.Errorf("channel names: %s / %s", ChannelHCISnoop, ChannelUSBSniff)
	}
}

func TestCheckPairingRolesBranches(t *testing.T) {
	if v := CheckPairingRoles(nil); v.Suspicious {
		t.Error("nil connection cannot be suspicious")
	}
	c := &host.Conn{}
	if v := CheckPairingRoles(c); v.Suspicious {
		t.Error("peer-initiated pairing is not our anomaly")
	}
	c.PairingInitiator, c.Initiator = true, true
	if v := CheckPairingRoles(c); v.Suspicious {
		t.Error("we initiated both roles: normal")
	}
	c.Initiator = false
	// Pairing-initiator over incoming conn, but peer caps unknown.
	if v := CheckPairingRoles(c); v.Suspicious {
		t.Error("unknown peer capability should not flag")
	}
	c.HavePeerIOCap = true
	c.PeerIOCap = 1 // DisplayYesNo
	if v := CheckPairingRoles(c); v.Suspicious {
		t.Error("display-capable peer should not flag")
	}
	c.PeerIOCap = 3 // NoInputNoOutput
	if v := CheckPairingRoles(c); !v.Suspicious {
		t.Error("the full signature must flag")
	}
}

func TestAirSnifferResetAndLen(t *testing.T) {
	tb := mustTestbed(t, 110, TestbedOptions{})
	sniffer := NewAirSniffer(tb.Medium)
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	if sniffer.Len() == 0 {
		t.Fatal("pairing produced no sniffed frames")
	}
	sniffer.Reset()
	if sniffer.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestExtractionKeysInCapturePinned pins what the snoop-channel
// extraction reads back from the pulled dump for fixed seeds: the first
// run finds the bonded key as the capture's one key, and a second run
// against the same client finds it again beside the first run's copy,
// so KeysInCapture counts every sighting in the log, not only the new
// one. With the §VII-A filter on, the dump holds no key at all.
func TestExtractionKeysInCapturePinned(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		tb := mustTestbed(t, seed, TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Bond: true})
		for run, wantKeys := range []int{1, 2} {
			rep, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
				Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: ChannelHCISnoop,
			})
			if err != nil {
				t.Fatalf("seed %d run %d: %v", seed, run, err)
			}
			if !rep.Found || rep.Key != tb.BondKey || rep.KeysInCapture != wantKeys {
				t.Errorf("seed %d run %d: Found %v, key matches bond %v, KeysInCapture %d; want true, true, %d",
					seed, run, rep.Found, rep.Key == tb.BondKey, rep.KeysInCapture, wantKeys)
			}
		}

		tb = mustTestbed(t, seed, TestbedOptions{ClientPlatform: device.GalaxyS21Android11, Bond: true})
		tb.C.Snoop.Filter = SnoopLinkKeyFilter
		rep, err := RunLinkKeyExtraction(tb.Sched, LinkKeyExtractionConfig{
			Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: ChannelHCISnoop,
		})
		if !errors.Is(err, ErrKeyNotFound) || rep.Found || rep.KeysInCapture != 0 {
			t.Errorf("seed %d filtered: err %v, Found %v, KeysInCapture %d; want ErrKeyNotFound, false, 0",
				seed, err, rep.Found, rep.KeysInCapture)
		}
	}
}
