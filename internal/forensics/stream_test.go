package forensics

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// streamTestCaptures serializes one capture per interesting scenario:
// the three testbed dumps the analyzer tests pin (attacked victim,
// innocent pairing, attacked accessory) plus a synthetic noisy capture.
func streamTestCaptures(t *testing.T) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)

	tb := mustTestbed(t, 1, core.TestbedOptions{})
	core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	data, err := tb.M.PullSnoopLog()
	if err != nil {
		t.Fatal(err)
	}
	out["page-blocked-victim"] = data

	tb2 := mustTestbed(t, 2, core.TestbedOptions{})
	tb2.MUser.ExpectPairing(tb2.C.Addr())
	tb2.M.Host.Pair(tb2.C.Addr(), func(error) {})
	tb2.Sched.RunFor(30 * time.Second)
	if out["normal-pairing"], err = tb2.M.PullSnoopLog(); err != nil {
		t.Fatal(err)
	}

	tb3 := mustTestbed(t, 3, core.TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11, Bond: true,
	})
	if _, err := core.RunLinkKeyExtraction(tb3.Sched, core.LinkKeyExtractionConfig{
		Attacker: tb3.A, Client: tb3.C, Target: tb3.M.Addr(), Channel: core.ChannelHCISnoop,
	}); err != nil {
		t.Fatal(err)
	}
	if out["extraction-accessory"], err = tb3.C.PullSnoopLog(); err != nil {
		t.Fatal(err)
	}

	var synth bytes.Buffer
	if _, err := snoop.Synthesize(&synth, snoop.SynthConfig{Records: 8000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	out["synthetic"] = synth.Bytes()
	return out
}

// TestAnalyzeStreamMatchesAnalyze pins the batch entries — AnalyzeBatch
// over a stream and AnalyzeBytes over a slice — to the record-at-a-time
// Analyze: for every capture the reports must be deeply identical,
// findings order included.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Analyze(recs)
		if name != "normal-pairing" && len(want.Findings) == 0 {
			t.Fatalf("%s: scenario lost its findings", name)
		}
		for mode, run := range map[string]func() (*Report, error){
			"batch": func() (*Report, error) { return AnalyzeBatch(bytes.NewReader(data)) },
			"bytes": func() (*Report, error) { return AnalyzeBytes(data) },
		} {
			got, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: batch report differs from Analyze\nbatch:  %s\nmemory: %s",
					name, mode, got.Render(), want.Render())
			}
		}
	}
}

// TestFailedConnectionCompleteDoesNotLeakIncoming reproduces the
// pendingIncoming leak: an inbound page that fails must not mark a later
// outgoing session to the same peer as incoming, which would fabricate a
// page-blocking signature.
func TestFailedConnectionCompleteDoesNotLeakIncoming(t *testing.T) {
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	base := snoop.CaptureBase
	rec := func(i int, received bool, wire []byte) snoop.Record {
		flags := uint32(snoop.FlagCommandEvent)
		if received {
			flags |= snoop.FlagDirectionReceived
		}
		return snoop.Record{
			OriginalLength: uint32(len(wire)),
			Flags:          flags,
			Timestamp:      base.Add(time.Duration(i) * time.Millisecond),
			Data:           wire,
		}
	}
	records := []snoop.Record{
		// Inbound page accepted, but the completion fails.
		rec(0, true, hci.EncodeEvent(&hci.ConnectionRequest{Addr: peer, COD: bt.CODHeadset, LinkType: hci.LinkTypeACL}).Wire()),
		rec(1, false, hci.EncodeCommand(&hci.AcceptConnectionRequest{Addr: peer, Role: 1}).Wire()),
		rec(2, true, hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusPageTimeout, Addr: peer}).Wire()),
		// Later *outgoing* connection to the same peer, with the elements
		// that would complete a page-blocking signature if Incoming leaked.
		rec(3, true, hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: 9, Addr: peer, LinkType: hci.LinkTypeACL}).Wire()),
		rec(4, false, hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 9}).Wire()),
		rec(5, true, hci.EncodeEvent(&hci.IOCapabilityResponse{Addr: peer, Capability: bt.NoInputNoOutput}).Wire()),
	}
	report := Analyze(records)
	if len(report.Sessions) != 1 {
		t.Fatalf("sessions: %d (the failed completion must not create one)", len(report.Sessions))
	}
	if report.Sessions[0].Incoming {
		t.Fatal("failed inbound page leaked into the outgoing session")
	}
	if report.HasFinding(FindingPageBlocking) {
		t.Fatalf("false page-blocking signature:\n%s", report.Render())
	}
}

// TestHandleReuseWithoutDisconnect pins what an authentication in flight
// on a handle means when the controller reuses that handle for another
// peer without a Disconnection_Complete in between: the pending
// authentication stays with the handle, so a timeout disconnect of the
// new connection raises one stalled-authentication finding for the new
// peer and session, and an Authentication_Complete on the reused handle
// settles it.
func TestHandleReuseWithoutDisconnect(t *testing.T) {
	peerA := bt.MustBDADDR("00:1a:7d:da:71:0a")
	peerB := bt.MustBDADDR("f0:0d:ca:fe:00:ff")
	const h = 0x0042
	run := func(settle bool) *Report {
		pkts := []hci.Packet{
			hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: h, Addr: peerA}),
			hci.EncodeCommand(&hci.AuthenticationRequested{Handle: h}),
			hci.EncodeEvent(&hci.ConnectionComplete{Status: hci.StatusSuccess, Handle: h, Addr: peerB}),
		}
		if settle {
			pkts = append(pkts, hci.EncodeEvent(&hci.AuthenticationComplete{Status: hci.StatusSuccess, Handle: h}))
		}
		pkts = append(pkts, hci.EncodeEvent(&hci.DisconnectionComplete{Status: hci.StatusSuccess, Handle: h, Reason: hci.StatusConnectionTimeout}))
		full, live := NewDetector(), NewLiveDetector()
		for _, p := range pkts {
			full.Push(snoop.Record{Data: p.Wire()})
			live.Push(snoop.Record{Data: p.Wire()})
		}
		if want, got := full.Drain(), live.Drain(); !reflect.DeepEqual(want, got) {
			t.Fatalf("settle=%v: live events diverge:\nfull: %+v\nlive: %+v", settle, want, got)
		}
		return full.Finish()
	}

	rep := run(false)
	if len(rep.Sessions) != 2 || rep.Sessions[0].Peer != peerA || rep.Sessions[1].Peer != peerB {
		t.Fatalf("want sessions for peer A then peer B:\n%s", rep.Render())
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("%d findings, want one stalled authentication:\n%s", len(rep.Findings), rep.Render())
	}
	f := rep.Findings[0]
	if f.Kind != FindingStalledAuthTimeout || f.Peer != peerB || f.Session != rep.Sessions[1] {
		t.Fatalf("finding %s for peer %s on session %p, want %s for peer B on session B (%p)",
			f.Kind, f.Peer, f.Session, FindingStalledAuthTimeout, rep.Sessions[1])
	}

	if rep := run(true); len(rep.Findings) != 0 {
		t.Fatalf("an Authentication_Complete on the reused handle left a finding:\n%s", rep.Render())
	}
}

// TestAnalyzeStreamBoundedMemory checks AnalyzeBatch never buffers the
// whole stream: total allocation during a pass over a large capture
// must stay well below the capture size.
func TestAnalyzeStreamBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted by the race detector")
	}
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 300_000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := AnalyzeBatch(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(rep.Sessions) == 0 {
		t.Fatal("no sessions")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > uint64(len(data))/2 {
		t.Fatalf("streaming pass allocated %d bytes over a %d-byte capture — not bounded", allocated, len(data))
	}
}
