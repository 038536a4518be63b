package forensics

import (
	"bytes"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/snoop"
)

// TestDetectorEventsMatchBatchFindings pins live detection to batch
// analysis: pushing records one at a time and draining after every push
// must yield the same findings, in the same order, as Analyze over the
// same slice — and the final report must be deeply identical.
func TestDetectorEventsMatchBatchFindings(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Analyze(recs)

		d := NewDetector()
		var events []Event
		for i, rec := range recs {
			d.Push(rec)
			for _, ev := range d.Drain() {
				// A finding can only ever be emitted by the record just
				// pushed — that is what makes the detector "live".
				if ev.Frame != i+1 {
					t.Fatalf("%s: event %d drained after frame %d but stamped frame %d",
						name, ev.Seq, i+1, ev.Frame)
				}
				events = append(events, ev)
			}
		}
		got := d.Finish()

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: incremental report differs from Analyze\nlive:  %s\nbatch: %s",
				name, got.Render(), want.Render())
		}
		if len(events) != len(want.Findings) {
			t.Fatalf("%s: %d events, %d batch findings", name, len(events), len(want.Findings))
		}
		for i, ev := range events {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: event %d has seq %d", name, i, ev.Seq)
			}
			if !eventMatchesFinding(ev.Finding, want.Findings[i]) {
				t.Fatalf("%s: event %d finding differs:\nlive:  %+v\nbatch: %+v",
					name, i, ev.Finding, want.Findings[i])
			}
			if ev.Finding.Session != got.Findings[i].Session {
				t.Fatalf("%s: event %d points at another session than its report finding", name, i)
			}
			if ev.Frame != ev.Finding.Frame {
				t.Fatalf("%s: event frame %d != finding frame %d", name, ev.Frame, ev.Finding.Frame)
			}
		}
		if d.Frames() != len(recs) {
			t.Fatalf("%s: Frames() = %d, pushed %d", name, d.Frames(), len(recs))
		}
		if d.Findings() != uint64(len(events)) {
			t.Fatalf("%s: Findings() = %d, drained %d", name, d.Findings(), len(events))
		}
	}
}

// eventMatchesFinding reports whether a drained event's finding is the
// report finding rf: same kind, frame and peer, a deeply equal session,
// no rendered Detail of its own, and the text AppendDetail renders from
// its structured fields equal to rf.Detail.
func eventMatchesFinding(ev, rf Finding) bool {
	return ev.Kind == rf.Kind && ev.Frame == rf.Frame && ev.Peer == rf.Peer &&
		reflect.DeepEqual(ev.Session, rf.Session) &&
		ev.Detail == "" && string(ev.AppendDetail(nil)) == rf.Detail
}

// TestPushKeptMatchesPush pins the prefiltered batch feed to the
// record-at-a-time path: for every capture and every batch shape (one
// record per batch off a trickling reader, small blocks, whole-slice
// batches, and batches the prefilter empties),
// ScanBatchKeep + PushKept must yield the same drained events and a
// deeply identical report as Push over every record, and the scanner
// must count every frame even though Frames stops at the last relevant
// one.
func TestPushKeptMatchesPush(t *testing.T) {
	for name, data := range streamTestCaptures(t) {
		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref := NewDetector()
		var wantEvents []Event
		lastRelevant := 0
		for i, rec := range recs {
			ref.Push(rec)
			wantEvents = append(wantEvents, ref.Drain()...)
			var m hciMsg
			if m.decode(rec.Data) {
				lastRelevant = i + 1
			}
		}
		want := ref.Finish()

		for mode, sc := range map[string]*snoop.BatchScanner{
			"trickle": snoop.NewBatchScanner(iotest.OneByteReader(bytes.NewReader(data))),
			"block":   snoop.NewBatchScannerSize(bytes.NewReader(data), 4<<10),
			"bytes":   snoop.NewBatchScannerBytes(data),
		} {
			d := NewDetector()
			var events []Event
			var b snoop.RecordBatch
			for sc.ScanBatchKeep(&b, RelevantRecord) {
				d.PushKept(b.Frames, b.Records)
				events = append(events, d.Drain()...)
			}
			d.PushKept(nil, nil) // empty batches are no-ops
			if err := sc.Err(); err != nil {
				t.Fatalf("%s %s: %v", name, mode, err)
			}
			if sc.Frame() != len(recs) {
				t.Fatalf("%s %s: scanner Frame()=%d, want %d", name, mode, sc.Frame(), len(recs))
			}
			if d.Frames() != lastRelevant {
				t.Fatalf("%s %s: Frames()=%d, want last relevant frame %d", name, mode, d.Frames(), lastRelevant)
			}
			if !reflect.DeepEqual(d.Finish(), want) {
				t.Fatalf("%s %s: batch report differs from Push", name, mode)
			}
			if !reflect.DeepEqual(events, wantEvents) {
				t.Fatalf("%s %s: %d batch events, %d push events (or contents differ)",
					name, mode, len(events), len(wantEvents))
			}
		}
	}
}

// TestDetectorFiresBeforeEOF is the point of the subsystem: on a long
// capture with early attack flows, the first finding must surface long
// before the last record arrives — batch-at-EOF analysis cannot do this.
func TestDetectorFiresBeforeEOF(t *testing.T) {
	data, stats := synthCapture(t, 20_000, 9)
	if stats.BlockedSessions == 0 {
		t.Fatal("fixture lost its page-blocking sessions")
	}
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector()
	first := 0
	for _, rec := range recs {
		d.Push(rec)
		if evs := d.Drain(); first == 0 && len(evs) > 0 {
			first = evs[0].Frame
		}
	}
	if first == 0 {
		t.Fatal("no events emitted")
	}
	if first > len(recs)/10 {
		t.Fatalf("first finding at frame %d of %d — not incremental", first, len(recs))
	}
}

// TestFindingFramesMonotonic checks the frame stamps advance with the
// stream (sequence numbers are pinned elsewhere; frames may repeat when
// one record completes several findings).
func TestFindingFramesMonotonic(t *testing.T) {
	data, _ := synthCapture(t, 5_000, 4)
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(recs)
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	last := 0
	for _, f := range rep.Findings {
		if f.Frame <= 0 || f.Frame > len(recs) {
			t.Fatalf("finding frame %d out of range 1..%d", f.Frame, len(recs))
		}
		if f.Frame < last {
			t.Fatalf("finding frames regress: %d after %d", f.Frame, last)
		}
		last = f.Frame
	}
}

func synthCapture(t testing.TB, records int, seed int64) ([]byte, snoop.SynthStats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}
