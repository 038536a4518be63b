package forensics_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bt"
	. "repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// keptBatch is one prefiltered batch as PushKept consumes it, deep-copied
// so it can be replayed after the scanner has reused its buffers.
type keptBatch struct {
	frames []int
	recs   []snoop.Record
}

// scanKept splits a capture into prefiltered batches the way blapd feeds
// its detector: a small-block BatchScanner with the RelevantRecord
// prefilter in the sweep.
func scanKept(t testing.TB, data []byte, blockBytes int) []keptBatch {
	t.Helper()
	sc := snoop.NewBatchScannerSize(bytes.NewReader(data), blockBytes)
	var out []keptBatch
	var b snoop.RecordBatch
	for sc.ScanBatchKeep(&b, RelevantRecord) {
		kb := keptBatch{frames: append([]int(nil), b.Frames...)}
		for _, rec := range b.Records {
			rec.Data = append([]byte(nil), rec.Data...)
			kb.recs = append(kb.recs, rec)
		}
		out = append(out, kb)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// chunkKept splits in-memory records into prefiltered batches of n
// records each, numbering frames 1..len(recs).
func chunkKept(recs []snoop.Record, n int) []keptBatch {
	var out []keptBatch
	for lo := 0; lo < len(recs); lo += n {
		var kb keptBatch
		for i := lo; i < min(lo+n, len(recs)); i++ {
			if RelevantRecord(recs[i].Data) {
				kb.frames = append(kb.frames, i+1)
				kb.recs = append(kb.recs, recs[i])
			}
		}
		out = append(out, kb)
	}
	return out
}

// liveInputs returns the differential inputs: a dense and a sparse
// synthesized capture, and every attack fixture.
func liveInputs(t *testing.T) map[string][]keptBatch {
	t.Helper()
	synth := func(cfg snoop.SynthConfig) []byte {
		var buf bytes.Buffer
		if _, err := snoop.Synthesize(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	in := map[string][]keptBatch{
		"dense":  scanKept(t, synth(snoop.SynthConfig{Records: 6000, Seed: 5, SessionEvery: 8}), 4096),
		"sparse": scanKept(t, synth(snoop.SynthConfig{Records: 20000, Seed: 6}), 16384),
	}
	for _, c := range attackCaptures() {
		in["attack/"+c.name] = chunkKept(c.run(t), 5)
	}
	return in
}

// TestLiveDetectorMatchesFull runs a live and a full detector side by
// side. At every batch boundary their drained events and their live
// snapshots must be identical, and the live session list must respect
// its bound. Every boundary's snapshot, restored into a fresh live
// detector and continued, must then emit exactly the uninterrupted tail.
func TestLiveDetectorMatchesFull(t *testing.T) {
	for name, batches := range liveInputs(t) {
		t.Run(name, func(t *testing.T) {
			full, live := NewDetector(), NewLiveDetector()
			var events [][]Event // events drained after each batch
			var snaps [][]byte   // live snapshot taken after each batch
			for i, b := range batches {
				full.PushKept(b.frames, b.recs)
				live.PushKept(b.frames, b.recs)
				want, got := full.Drain(), live.Drain()
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("batch %d: events diverge:\nfull: %+v\nlive: %+v", i, want, got)
				}
				fs, err := full.SnapshotLiveState()
				if err != nil {
					t.Fatal(err)
				}
				ls, err := live.SnapshotLiveState()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fs, ls) {
					t.Fatalf("batch %d: live snapshots diverge (%d vs %d bytes)", i, len(fs), len(ls))
				}
				if n, bound := len(live.Finish().Sessions), 2*DistinctLive(live)+64; n > bound {
					t.Fatalf("batch %d: live report holds %d sessions, bound %d", i, n, bound)
				}
				events = append(events, got)
				snaps = append(snaps, ls)
			}
			if full.Findings() == 0 && !strings.HasPrefix(name, "attack/") {
				t.Fatal("synthesized input raised no findings")
			}
			if rep := live.Finish(); len(rep.Exposures) != 0 || len(rep.Findings) != 0 {
				t.Fatalf("live report kept %d exposures and %d findings", len(rep.Exposures), len(rep.Findings))
			}

			for cut, snap := range snaps {
				d := NewLiveDetector()
				if err := d.RestoreState(snap); err != nil {
					t.Fatalf("cut %d: restore: %v", cut, err)
				}
				for i := cut + 1; i < len(batches); i++ {
					d.PushKept(batches[i].frames, batches[i].recs)
					got := d.Drain()
					if len(got) != len(events[i]) {
						t.Fatalf("cut %d, batch %d: %d events after restore, want %d", cut, i, len(got), len(events[i]))
					}
					for j := range got {
						if !sameWireEvent(got[j], events[i][j]) {
							t.Fatalf("cut %d, batch %d: event %d diverges:\ngot:  %+v\nwant: %+v", cut, i, j, got[j], events[i][j])
						}
					}
				}
				// The restored detector stayed live.
				if rep := d.Finish(); len(rep.Findings) != 0 || len(rep.Sessions) > 2*DistinctLive(d)+64 {
					t.Fatalf("cut %d: restored detector kept %d findings and %d sessions", cut, len(rep.Findings), len(rep.Sessions))
				}
			}
		})
	}
}

// sameWireEvent compares what the JSONL stream carries of an event,
// the finding text as AppendDetail renders it. Restored findings point
// at restored Session copies, so the *Session is not compared.
func sameWireEvent(a, b Event) bool {
	return a.Seq == b.Seq && a.Frame == b.Frame && a.Time.Equal(b.Time) &&
		a.Finding.Kind == b.Finding.Kind && a.Finding.Frame == b.Finding.Frame &&
		a.Finding.Peer == b.Finding.Peer &&
		bytes.Equal(a.Finding.AppendDetail(nil), b.Finding.AppendDetail(nil))
}

// TestLiveDetectorStateIsBounded: over a long dense capture, a live
// detector keeps no exposures or findings and a session list within
// twice its live set plus 64, while a full detector keeps them all.
func TestLiveDetectorStateIsBounded(t *testing.T) {
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 200_000, Seed: 8, SessionEvery: 8}); err != nil {
		t.Fatal(err)
	}
	d := NewLiveDetector()
	sc := snoop.NewBatchScannerBytes(buf.Bytes())
	var b snoop.RecordBatch
	for sc.ScanBatchKeep(&b, RelevantRecord) {
		d.PushKept(b.Frames, b.Records)
		d.Drain()
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Findings() < 10_000 {
		t.Fatalf("dense capture raised only %d findings", d.Findings())
	}
	rep := d.Finish()
	if len(rep.Exposures) != 0 || len(rep.Findings) != 0 {
		t.Fatalf("live report kept %d exposures and %d findings", len(rep.Exposures), len(rep.Findings))
	}
	if n, bound := len(rep.Sessions), 2*DistinctLive(d)+64; n > bound {
		t.Fatalf("live report holds %d sessions, bound %d", n, bound)
	}
}

// TestFindingDetailText pins the exact Detail text of every finding kind.
// The JSONL stream and the stored findings carry these strings, so they
// must not drift when the code that builds them changes. The messages
// are encoded to wire records and go through the in-place decoder, and
// both forms are checked: the report's Detail and the text the drained
// events render with AppendDetail.
func TestFindingDetailText(t *testing.T) {
	peer := bt.MustBDADDR("00:1a:7d:da:71:0a")
	other := bt.MustBDADDR("f0:0d:ca:fe:00:ff")
	k1 := bt.MustLinkKey("00112233445566778899aabbccddeeff")
	k2 := bt.MustLinkKey("ffeeddccbbaa99887766554433221100")
	k3 := bt.MustLinkKey("0123456789abcdef0123456789abcdef")

	d := NewDetector()
	ok := hci.StatusSuccess
	for _, pkt := range []hci.Packet{
		hci.EncodeCommand(&hci.AcceptConnectionRequest{Addr: peer}),
		hci.EncodeEvent(&hci.ConnectionComplete{Status: ok, Handle: 0x000b, Addr: peer}),
		hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 0x000b}),
		hci.EncodeEvent(&hci.IOCapabilityResponse{Addr: peer, Capability: bt.NoInputNoOutput}),
		hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: peer, Key: k1}),
		hci.EncodeEvent(&hci.SimplePairingComplete{Status: ok, Addr: peer}),
		hci.EncodeEvent(&hci.LinkKeyNotification{Addr: peer, Key: k2, KeyType: bt.KeyTypeAuthenticatedP256}),
		hci.EncodeEvent(&hci.LinkKeyNotification{Addr: peer, Key: k3, KeyType: bt.KeyTypeUnauthenticatedP192}),
		hci.EncodeEvent(&hci.DisconnectionComplete{Status: ok, Handle: 0x000b, Reason: hci.StatusConnectionTimeout}),
		hci.EncodeEvent(&hci.ConnectionComplete{Status: ok, Handle: 0x0abc, Addr: other}),
		hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 0x0abc}),
		hci.EncodeEvent(&hci.DisconnectionComplete{Status: ok, Handle: 0x0abc, Reason: hci.StatusLMPResponseTimeout}),
	} {
		d.Push(snoop.Record{Data: pkt.Wire()})
	}

	want := []Finding{
		{Kind: FindingPageBlocking, Frame: 4, Peer: peer, Detail: "pairing initiated locally over an incoming connection whose initiator claims NoInputNoOutput (the Fig. 12b signature)"},
		{Kind: FindingKeyExposure, Frame: 5, Peer: peer, Detail: "frame 5: 128-bit link key in plaintext via HCI_Link_Key_Request_Reply"},
		{Kind: FindingSilentRepairing, Frame: 6, Peer: peer, Detail: "full pairing completed on a session whose peer was already answered with a stored link key — silent automatic re-pairing (Stealtooth signature)"},
		{Kind: FindingKeyExposure, Frame: 7, Peer: peer, Detail: "frame 7: 128-bit link key in plaintext via HCI_Link_Key_Notification"},
		{Kind: FindingSilentKeyChange, Frame: 7, Peer: peer, Detail: "link key for 00:1a:7d:da:71:0a replaced within one capture (previous sighting differs) — stored-key overwrite signature"},
		{Kind: FindingKeyExposure, Frame: 8, Peer: peer, Detail: "frame 8: 128-bit link key in plaintext via HCI_Link_Key_Notification"},
		{Kind: FindingSilentKeyChange, Frame: 8, Peer: peer, Detail: "link key for 00:1a:7d:da:71:0a replaced within one capture (previous sighting differs) — stored-key overwrite signature"},
		{Kind: FindingKeyTypeDowngrade, Frame: 8, Peer: peer, Detail: "key type for 00:1a:7d:da:71:0a downgraded from Authenticated (P-256) to Unauthenticated (P-192) — MITM protection lost (BLURtooth-style downgrade)"},
		{Kind: FindingStalledAuthTimeout, Frame: 9, Peer: peer, Detail: "authentication on handle 0x000b never completed; link dropped with Connection Timeout — the trace a link key extraction stall leaves behind"},
		{Kind: FindingStalledAuthTimeout, Frame: 12, Peer: other, Detail: "authentication on handle 0x0abc never completed; link dropped with LMP Response Timeout — the trace a link key extraction stall leaves behind"},
	}
	rep := d.Finish()
	events := d.Drain()
	if len(rep.Findings) != len(want) || len(events) != len(want) {
		t.Fatalf("%d findings and %d events, want %d:\n%s", len(rep.Findings), len(events), len(want), rep.Render())
	}
	for i, w := range want {
		g := rep.Findings[i]
		if g.Kind != w.Kind || g.Frame != w.Frame || g.Peer != w.Peer || g.Detail != w.Detail {
			t.Errorf("finding %d:\ngot:  %s %d %s %q\nwant: %s %d %s %q",
				i, g.Kind, g.Frame, g.Peer, g.Detail, w.Kind, w.Frame, w.Peer, w.Detail)
		}
		if e := events[i].Finding; !eventMatchesFinding(e, g) || string(e.AppendDetail(nil)) != w.Detail {
			t.Errorf("event %d renders %q (%+v), want %q", i, e.AppendDetail(nil), e, w.Detail)
		}
	}
}

// FuzzRestoreState feeds arbitrary bytes to RestoreState. It must never
// panic, and any input it accepts must be a canonical checkpoint:
// SnapshotState after the restore reproduces it byte for byte, and a live
// detector restored from it writes the same live snapshot as a full one.
func FuzzRestoreState(f *testing.F) {
	seed := func(batches []keptBatch) {
		full, live := NewDetector(), NewLiveDetector()
		for i, b := range batches {
			full.PushKept(b.frames, b.recs)
			live.PushKept(b.frames, b.recs)
			full.Drain()
			live.Drain()
			if i != len(batches)/2 && i != len(batches)-1 {
				continue
			}
			for _, snap := range []func() ([]byte, error){full.SnapshotState, full.SnapshotLiveState, live.SnapshotLiveState} {
				b, err := snap()
				if err != nil {
					f.Fatal(err)
				}
				f.Add(b)
			}
		}
	}
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 600, Seed: 3, SessionEvery: 8}); err != nil {
		f.Fatal(err)
	}
	seed(scanKept(f, buf.Bytes(), 4096))
	for _, c := range attackCaptures() {
		seed(chunkKept(c.run(f), 5))
	}
	f.Add([]byte{CheckpointVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDetector()
		if d.RestoreState(data) != nil {
			return
		}
		back, err := d.SnapshotState()
		if err != nil {
			t.Fatalf("snapshot after restore: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted a non-canonical checkpoint:\nin:  %x\nout: %x", data, back)
		}
		l := NewLiveDetector()
		if err := l.RestoreState(data); err != nil {
			t.Fatalf("live restore rejects what a full restore accepts: %v", err)
		}
		if rep := l.Finish(); len(rep.Exposures) != 0 || len(rep.Findings) != 0 {
			t.Fatalf("live restore kept %d exposures and %d findings", len(rep.Exposures), len(rep.Findings))
		}
		want, err := d.SnapshotLiveState()
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.SnapshotLiveState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("live snapshots diverge after restore:\nfull: %x\nlive: %x", want, got)
		}
	})
}

// denseKept synthesizes a dense capture (a session every 8 records, a
// finding about every 10) and pre-scans it into the prefiltered batches
// blapd's detector loop sees, with blapd's 256 KiB scanner blocks. It
// returns the batches and the number of kept records.
func denseKept(tb testing.TB, records int, seed int64) ([]keptBatch, int) {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed, SessionEvery: 8}); err != nil {
		tb.Fatal(err)
	}
	batches := scanKept(tb, buf.Bytes(), 256<<10)
	kept := 0
	for _, b := range batches {
		kept += len(b.recs)
	}
	return batches, kept
}

// reduceLive runs blapd's detector loop over pre-scanned batches: one
// live detector, PushKept and Drain per batch.
func reduceLive(batches []keptBatch) *Detector {
	d := NewLiveDetector()
	for _, b := range batches {
		d.PushKept(b.frames, b.recs)
		d.Drain()
	}
	return d
}

// TestPushKeptAllocs bounds the live reducer's allocations on a dense
// capture. Decoding in place, structured findings, the two lookup tables
// and the session and outcome arenas leave one burst slice per Drain and
// one chunk per 64 sessions and per 512 first outcomes, well under 0.05
// allocations per kept record; a *Session per connection or a fresh
// AuthOutcomes slice per session would each break the bound on its own.
func TestPushKeptAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race detector distorts allocation counts")
	}
	batches, kept := denseKept(t, 200_000, 1)
	allocs := testing.AllocsPerRun(3, func() { reduceLive(batches) })
	if per := allocs / float64(kept); per > 0.05 {
		t.Fatalf("%.0f allocations for %d kept records: %.4f per record, bound 0.05", allocs, kept, per)
	}
}

// BenchmarkLiveReduceDense times the reducer layer of live ingest alone:
// NewLiveDetector, PushKept and Drain over a 1M-record dense capture
// whose batches were scanned and prefiltered outside the timer. It
// reports the cost per kept record and per finding.
func BenchmarkLiveReduceDense(b *testing.B) {
	batches, kept := denseKept(b, 1_000_000, 1)
	findings := reduceLive(batches).Findings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduceLive(batches)
	}
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(kept), "ns/kept")
	b.ReportMetric(ns/float64(findings), "ns/finding")
}
