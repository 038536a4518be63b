package forensics_test

import (
	"bytes"
	"reflect"
	"testing"

	. "repro/internal/forensics"
	"repro/internal/snoop"
)

// TestCheckpointRoundTripAtEveryBatchBoundary is the exactness contract
// behind session resume: snapshot a detector at an arbitrary record
// boundary, restore a fresh detector from the bytes, feed both the rest
// of the capture, and every subsequent event (seq, frame, time,
// finding) and the final report must be identical.
func TestCheckpointRoundTripAtEveryBatchBoundary(t *testing.T) {
	data, _ := synthCapture(t, 6000, 13)
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{0, 1, 7, len(recs) / 3, len(recs) / 2, len(recs) - 1, len(recs)} {
		ref := NewDetector()
		split := NewDetector()
		for _, rec := range recs[:cut] {
			ref.Push(rec)
			split.Push(rec)
		}
		refEvs := ref.Drain()
		if got := split.Drain(); len(got) != len(refEvs) {
			t.Fatalf("cut %d: prefix drains diverge: %d vs %d", cut, len(got), len(refEvs))
		}

		state, err := split.SnapshotState()
		if err != nil {
			t.Fatalf("cut %d: snapshot: %v", cut, err)
		}
		// Determinism: the same state must serialize identically twice.
		again, err := split.SnapshotState()
		if err != nil || !bytes.Equal(state, again) {
			t.Fatalf("cut %d: snapshot not deterministic (%v)", cut, err)
		}

		restored := NewDetector()
		if err := restored.RestoreState(state); err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		// Restore → snapshot must reproduce the bytes.
		back, err := restored.SnapshotState()
		if err != nil || !bytes.Equal(state, back) {
			t.Fatalf("cut %d: restored snapshot diverges (%v)", cut, err)
		}

		for _, rec := range recs[cut:] {
			ref.Push(rec)
			restored.Push(rec)
		}
		refTail := ref.Drain()
		gotTail := restored.Drain()
		if !reflect.DeepEqual(refTail, gotTail) {
			t.Fatalf("cut %d: post-restore events diverge:\nref: %+v\ngot: %+v", cut, refTail, gotTail)
		}
		if ref.Findings() != restored.Findings() || ref.Frames() != restored.Frames() {
			t.Fatalf("cut %d: counters diverge: findings %d/%d frames %d/%d",
				cut, ref.Findings(), restored.Findings(), ref.Frames(), restored.Frames())
		}
		if got, want := restored.Finish().Render(), ref.Finish().Render(); got != want {
			t.Fatalf("cut %d: reports diverge:\nref:\n%s\ngot:\n%s", cut, want, got)
		}
	}
}

// TestCheckpointRequiresDrain: undrained pending events may not be
// silently dropped into a checkpoint.
func TestCheckpointRequiresDrain(t *testing.T) {
	data, stats := synthCapture(t, 20_000, 9)
	if stats.KeyExposures == 0 {
		t.Fatal("fixture produced no findings")
	}
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector()
	for _, rec := range recs {
		d.Push(rec)
	}
	if d.Findings() == 0 {
		t.Fatal("no findings pushed")
	}
	if _, err := d.SnapshotState(); err == nil {
		t.Fatal("snapshot with pending events must fail")
	}
	d.Drain()
	if _, err := d.SnapshotState(); err != nil {
		t.Fatalf("snapshot after drain: %v", err)
	}
}

// TestCheckpointRejectsGarbage: wrong versions and truncated or padded
// payloads are errors, never a silently wrong detector.
func TestCheckpointRejectsGarbage(t *testing.T) {
	data, _ := synthCapture(t, 3000, 13)
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDetector()
	for _, rec := range recs {
		d.Push(rec)
	}
	d.Drain()
	state, err := d.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), state...)
	bad[0] = CheckpointVersion + 1
	if err := NewDetector().RestoreState(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	for _, n := range []int{0, 1, len(state) / 2, len(state) - 1} {
		if err := NewDetector().RestoreState(state[:n]); err == nil {
			t.Fatalf("truncated checkpoint (%d bytes) accepted", n)
		}
	}
	padded := append(append([]byte(nil), state...), 0xEE)
	if err := NewDetector().RestoreState(padded); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestSnapshotLiveStateEventParity is the contract that lets blapd
// checkpoint with the trimmed live snapshot: a detector restored from
// SnapshotLiveState emits, for every subsequent record, events
// identical to the uninterrupted detector's — the accumulated report is
// the only thing a live snapshot gives up.
func TestSnapshotLiveStateEventParity(t *testing.T) {
	data, stats := synthCapture(t, 20_000, 9)
	if stats.KeyExposures == 0 {
		t.Fatal("fixture produced no findings")
	}
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{0, 1, len(recs) / 3, len(recs) / 2, len(recs) - 1} {
		ref := NewDetector()
		for _, rec := range recs[:cut] {
			ref.Push(rec)
		}
		ref.Drain()

		full, err := ref.SnapshotState()
		if err != nil {
			t.Fatalf("cut %d: full snapshot: %v", cut, err)
		}
		live, err := ref.SnapshotLiveState()
		if err != nil {
			t.Fatalf("cut %d: live snapshot: %v", cut, err)
		}
		// Determinism holds for the trimmed form too.
		again, err := ref.SnapshotLiveState()
		if err != nil || !bytes.Equal(live, again) {
			t.Fatalf("cut %d: live snapshot not deterministic (%v)", cut, err)
		}
		// The whole point: once the capture has accumulated findings,
		// the live snapshot must be materially smaller than the full
		// one (it drops the report, keeping only reachable sessions).
		if ref.Findings() > 0 && len(live) >= len(full) {
			t.Fatalf("cut %d: live snapshot %dB not smaller than full %dB", cut, len(live), len(full))
		}

		restored := NewDetector()
		if err := restored.RestoreState(live); err != nil {
			t.Fatalf("cut %d: restore live: %v", cut, err)
		}
		if ref.Findings() != restored.Findings() || ref.Frames() != restored.Frames() {
			t.Fatalf("cut %d: counters diverge: findings %d/%d frames %d/%d",
				cut, ref.Findings(), restored.Findings(), ref.Frames(), restored.Frames())
		}
		for _, rec := range recs[cut:] {
			ref.Push(rec)
			restored.Push(rec)
		}
		refTail := ref.Drain()
		gotTail := restored.Drain()
		// Findings carry *Session pointers that can never be equal
		// across detectors; compare the event identity the wire format
		// carries (seq, frame, time, kind, peer, detail).
		if len(refTail) != len(gotTail) {
			t.Fatalf("cut %d: post-restore event counts diverge: %d vs %d", cut, len(refTail), len(gotTail))
		}
		for i := range refTail {
			a, b := refTail[i], gotTail[i]
			if a.Seq != b.Seq || a.Frame != b.Frame || !a.Time.Equal(b.Time) ||
				a.Finding.Kind != b.Finding.Kind || a.Finding.Peer != b.Finding.Peer ||
				a.Finding.Frame != b.Finding.Frame || a.Finding.Detail != b.Finding.Detail {
				t.Fatalf("cut %d: post-restore event %d diverges:\nref: %+v\ngot: %+v", cut, i, a, b)
			}
		}
	}
}
