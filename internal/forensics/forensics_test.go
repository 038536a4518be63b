package forensics_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/device"
	. "repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/snoop"
)

func mustTestbed(t *testing.T, seed int64, opts core.TestbedOptions) *core.Testbed {
	t.Helper()
	tb, err := core.NewTestbed(seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestDetectsPageBlockingFromVictimDump(t *testing.T) {
	tb := mustTestbed(t, 1, core.TestbedOptions{})
	rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
		UsePLOC: true,
	})
	if !rep.MITMEstablished {
		t.Fatal("attack failed")
	}
	report := Analyze(tb.M.Snoop.Records())
	if !report.HasFinding(FindingPageBlocking) {
		t.Fatalf("victim dump should show the page blocking signature:\n%s", report.Render())
	}
	// Session bookkeeping: one incoming session with local pairing init.
	var flagged *Session
	for _, f := range report.Findings {
		if f.Kind == FindingPageBlocking {
			flagged = f.Session
		}
	}
	if flagged == nil || !flagged.Incoming || !flagged.LocalPairingInitiation {
		t.Fatalf("flagged session: %+v", flagged)
	}
	if flagged.Peer != tb.C.Addr() {
		t.Fatalf("flagged peer %s, want the spoofed accessory address", flagged.Peer)
	}
}

func TestNormalPairingRaisesNoPageBlockingFinding(t *testing.T) {
	tb := mustTestbed(t, 2, core.TestbedOptions{})
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)

	report := Analyze(tb.M.Snoop.Records())
	if report.HasFinding(FindingPageBlocking) {
		t.Fatalf("false positive on a normal pairing:\n%s", report.Render())
	}
	// The pairing still legitimately exposed the fresh key in the dump.
	if !report.HasFinding(FindingKeyExposure) {
		t.Fatal("the Link_Key_Notification exposure should be flagged")
	}
	if len(report.Sessions) == 0 || report.Sessions[0].Incoming {
		t.Fatalf("sessions: %+v", report.Sessions)
	}
}

func TestDetectsExtractionStallOnAccessoryDump(t *testing.T) {
	tb := mustTestbed(t, 3, core.TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11,
		Bond:           true,
	})
	if _, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
		Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
	}); err != nil {
		t.Fatal(err)
	}
	report := Analyze(tb.C.Snoop.Records())
	if !report.HasFinding(FindingStalledAuthTimeout) {
		t.Fatalf("accessory dump should show the stalled-auth trace:\n%s", report.Render())
	}
	if !report.HasFinding(FindingKeyExposure) {
		t.Fatal("the key exposure the attacker harvested should be flagged")
	}
}

func TestAnalyzeBytesRoundTrip(t *testing.T) {
	tb := mustTestbed(t, 4, core.TestbedOptions{Bond: true})
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	data, err := tb.M.PullSnoopLog()
	if err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sessions) == 0 {
		t.Fatal("no sessions reconstructed from the file")
	}
	if !strings.Contains(report.Render(), "session") {
		t.Fatal("render")
	}
	if _, err := AnalyzeBytes([]byte("garbage")); err == nil {
		t.Fatal("garbage file accepted")
	}
}

func TestAnalyzeTolerantOfTruncatedRecords(t *testing.T) {
	tb := mustTestbed(t, 5, core.TestbedOptions{})
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	records := tb.M.Snoop.Records()
	// Mangle a third of the records (as a filter or corruption would).
	for i := range records {
		if i%3 == 0 && len(records[i].Data) > 2 {
			records[i].Data = records[i].Data[:2]
		}
	}
	Analyze(records) // must not panic
	_ = snoop.Record{}
}

// TestExposuresFindBothCarriers: a key is exposed by the host's
// HCI_Link_Key_Request_Reply and by the controller's
// HCI_Link_Key_Notification, and the report names each carrier.
func TestExposuresFindBothCarriers(t *testing.T) {
	key := bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324")
	addr := bt.MustBDADDR("00:1a:7d:da:71:0a")
	d := snoop.NewHCIDump()
	d.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: addr, Key: key}).Wire())
	d.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.LinkKeyNotification{Addr: addr, Key: key}).Wire())
	hits := Analyze(d.Records()).Exposures
	if len(hits) != 2 {
		t.Fatalf("want 2 hits, got %d", len(hits))
	}
	for _, h := range hits {
		if h.Key != key || h.Peer != addr {
			t.Errorf("bad hit: %+v", h)
		}
	}
	if hits[0].Source == hits[1].Source {
		t.Error("hits should name distinct carriers")
	}
}

// TestSynthesizedKeysAreExposures: every plaintext key the synthesizer
// writes is one exposure.
func TestSynthesizedKeysAreExposures(t *testing.T) {
	data, stats := synthCapture(t, 5000, 42)
	rep, err := AnalyzeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Exposures) != stats.KeyExposures {
		t.Fatalf("AnalyzeBatch found %d keys, stats say %d", len(rep.Exposures), stats.KeyExposures)
	}
}
