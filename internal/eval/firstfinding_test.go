package eval

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/snoop"
)

// pushLoopFirst is the record-at-a-time reference for firstFinding:
// every record goes through Detector.Push, so Frames counts them all.
func pushLoopFirst(t *testing.T, data []byte, kind string) (first, frames int) {
	t.Helper()
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	det := forensics.NewDetector()
	for _, rec := range recs {
		det.Push(rec)
		for _, ev := range det.Drain() {
			if first == 0 && ev.Finding.Kind == kind {
				first = ev.Frame
			}
		}
	}
	return first, det.Frames()
}

// TestFirstFindingMatchesPushLoop pins the eval scan helper to the Push
// loop it replaced, on a page-blocked victim's dump and on the same dump
// followed by a tail of records the prefilter rejects. The tail makes
// the detector's own frame count (the last relevant frame) fall short of
// the capture total, so a helper that read it would fail here.
func TestFirstFindingMatchesPushLoop(t *testing.T) {
	tb, err := core.NewTestbed(1, core.TestbedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	if !rep.MITMEstablished {
		t.Fatal("page blocking failed; the fixture needs a blocked victim")
	}
	dump, err := tb.M.Snoop.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	// Re-serialize the dump with a tail of ACL data records appended.
	recs, err := snoop.ReadAll(dump)
	if err != nil {
		t.Fatal(err)
	}
	const tailRecords = 5
	for i := 0; i < tailRecords; i++ {
		acl := hci.EncodeACL(hci.DirHostToController, 1, []byte{byte(i), 0, 0, 0}).Wire()
		if forensics.RelevantRecord(acl) {
			t.Fatal("tail record passes the prefilter")
		}
		recs = append(recs, snoop.Record{Timestamp: snoop.CaptureBase, Data: acl})
	}
	var tailed bytes.Buffer
	w := snoop.NewWriter(&tailed)
	for _, rec := range recs {
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}

	for name, data := range map[string][]byte{"dump": dump, "irrelevant-tail": tailed.Bytes()} {
		wantFirst, wantFrames := pushLoopFirst(t, data, forensics.FindingPageBlocking)
		if wantFirst == 0 {
			t.Fatalf("%s: the reference saw no page-blocking finding", name)
		}
		first, frames, err := firstFinding(data, forensics.FindingPageBlocking)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first != wantFirst || frames != wantFrames {
			t.Fatalf("%s: firstFinding = (%d, %d), Push loop = (%d, %d)",
				name, first, frames, wantFirst, wantFrames)
		}
	}
	if _, frames, _ := firstFinding(tailed.Bytes(), forensics.FindingPageBlocking); frames != len(recs) {
		t.Fatalf("irrelevant tail: %d frames, want %d", frames, len(recs))
	}
}
