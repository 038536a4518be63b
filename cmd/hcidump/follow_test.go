package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// TestFollowGrowingFile pins the tail contract: a writer appends a
// capture in small slices with pauses, and followFile must keep reading
// across the EOFs in between, end only after the idle window, and
// produce the exact batch report.
func TestFollowGrowingFile(t *testing.T) {
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 3000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	want := forensics.Analyze(recs)
	if len(want.Findings) == 0 {
		t.Fatal("fixture has no findings")
	}

	path := filepath.Join(t.TempDir(), "growing.btsnoop")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer w.Close()
		// Deliberately misaligned slices so the reader repeatedly hits
		// EOF mid-record and must wait for the writer.
		const chunk = 1017
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := w.Write(data[off:end]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out strings.Builder
	report, _, scanErr := followFile(f, 500*time.Millisecond, 100*time.Millisecond, &out, nil, nil)
	if scanErr != nil {
		t.Fatalf("follow ended with scan error: %v", scanErr)
	}
	if !reflect.DeepEqual(report, want) {
		t.Fatalf("follow report diverges from batch:\nfollow: %+v\nbatch:  %+v", report, want)
	}
	checkFollowLines(t, out.String(), want)
}

// checkFollowLines requires the printed live lines to be the report's
// findings, in order, one line each: frame, kind, peer and the finding
// text the events render with AppendDetail, equal to the report's
// Detail. The wall-clock prefix of each line is not compared.
func checkFollowLines(t *testing.T, out string, want *forensics.Report) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if out == "" {
		lines = nil
	}
	if len(lines) != len(want.Findings) {
		t.Fatalf("printed %d live finding lines, want %d", len(lines), len(want.Findings))
	}
	for i, f := range want.Findings {
		w := fmt.Sprintf("frame %-5d [%s] peer %s: %s", f.Frame, f.Kind, f.Peer, f.Detail)
		if _, got, _ := strings.Cut(lines[i], " "); got != w {
			t.Fatalf("live line %d:\ngot:  %s\nwant: %s", i, got, w)
		}
	}
}

// TestFollowIdleTruncated checks the other ending: the writer dies
// mid-record and never comes back, so the tail must give up after the
// idle window and report the truncation instead of hanging forever.
func TestFollowIdleTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 50, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	path := filepath.Join(t.TempDir(), "dead.btsnoop")
	if err := os.WriteFile(path, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	start := time.Now()
	report, next, scanErr := followFile(f, 200*time.Millisecond, 50*time.Millisecond, io.Discard, nil, nil)
	if next != nil {
		t.Fatal("a truncated tail must not produce a resumable checkpoint")
	}
	if scanErr == nil {
		t.Fatal("truncated tail reported a clean end")
	}
	if !errors.Is(scanErr, snoop.ErrTruncated) {
		t.Fatalf("scan error %v, want ErrTruncated", scanErr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("follow took %v to give up on an idle file", elapsed)
	}
	if report == nil || len(report.Sessions) == 0 {
		t.Fatal("records before the truncation were not analyzed")
	}
}

// TestFollowCheckpointResume pins the restartable-follow contract: a
// follow that ends cleanly mid-capture hands back a checkpoint, and a
// second follow resumed from that checkpoint (sidecar round-trip
// included) over the rest of the file yields a cumulative report equal
// to one uninterrupted batch analysis — findings straddling the restart
// included, none double-reported.
func TestFollowCheckpointResume(t *testing.T) {
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 3000, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	recs, err := snoop.ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	want := forensics.Analyze(recs)
	if len(want.Findings) < 2 {
		t.Fatal("fixture needs at least two findings to straddle a restart")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "restart.btsnoop")
	// First run sees only a misaligned prefix (mid-record cuts are the
	// truncated-tail case; a clean checkpoint needs a record boundary, so
	// back up to one via a quick scan).
	half := cleanBoundary(t, data, len(data)/2)
	if err := os.WriteFile(path, data[:half], 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var out1 strings.Builder
	_, ckp, scanErr := followFile(f, 100*time.Millisecond, 25*time.Millisecond, &out1, nil, nil)
	f.Close()
	if scanErr != nil {
		t.Fatalf("first follow ended with scan error: %v", scanErr)
	}
	if ckp == nil {
		t.Fatal("clean first follow produced no checkpoint")
	}
	if ckp.offset != int64(half) {
		t.Fatalf("checkpoint offset %d, wrote %d bytes", ckp.offset, half)
	}

	// Sidecar round-trip, as main does between runs.
	side := filepath.Join(dir, "follow.ckp")
	if err := writeFollowCheckpoint(side, ckp); err != nil {
		t.Fatal(err)
	}
	ckp, err = readFollowCheckpoint(side)
	if err != nil {
		t.Fatal(err)
	}
	if ckp == nil {
		t.Fatal("sidecar vanished")
	}

	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(ckp.offset, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	var out2 strings.Builder
	report, next, scanErr := followFile(f, 100*time.Millisecond, 25*time.Millisecond, &out2, nil, ckp)
	if scanErr != nil {
		t.Fatalf("resumed follow ended with scan error: %v", scanErr)
	}
	if next == nil || next.offset != int64(len(data)) {
		t.Fatalf("resumed follow checkpoint %+v, want offset %d", next, len(data))
	}
	if !reflect.DeepEqual(report, want) {
		t.Fatalf("cumulative resumed report diverges from batch:\nresumed: %+v\nbatch:   %+v", report, want)
	}
	// Live lines across both runs cover every finding exactly once.
	checkFollowLines(t, out1.String()+out2.String(), want)
}

// cleanBoundary returns the largest record boundary <= want, so a
// prefix cut there parses cleanly.
func cleanBoundary(t *testing.T, data []byte, want int) int {
	t.Helper()
	sc := snoop.NewBatchScannerSize(bytes.NewReader(data), 64<<10)
	var b snoop.RecordBatch
	best := 0
	for sc.ScanBatch(&b) {
		if off := int(sc.Offset()); off <= want {
			best = off
			continue
		}
		break
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if best == 0 {
		t.Fatal("no record boundary before the cut point")
	}
	return best
}

// eofReader always reports EOF and counts how often it was asked.
type eofReader struct{ reads int }

func (r *eofReader) Read([]byte) (int, error) { r.reads++; return 0, io.EOF }

// TestTailBackoffIsCapped pins the polling shape: over a one-second idle
// window the tail must back off exponentially toward the cap — a handful
// of polls — instead of spinning at a fixed short interval.
func TestTailBackoffIsCapped(t *testing.T) {
	r := &eofReader{}
	tr := &tailReader{f: r, idle: time.Second, pollMin: 10 * time.Millisecond, pollMax: 250 * time.Millisecond}
	start := time.Now()
	n, err := tr.Read(make([]byte, 16))
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("idle tail must end in EOF, got n=%d err=%v", n, err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("gave up after %v, before the idle window", elapsed)
	}
	// 10+20+40+80+160+250+250+250 ms covers the window in ~8 polls; a
	// fixed 10 ms interval would need ~100. Leave slack for scheduling.
	if r.reads > 20 {
		t.Fatalf("tail polled %d times over a 1 s idle window — backoff not applied", r.reads)
	}
}

// TestTailIdleDeadlineIsSharp is the regression test for the backoff
// overshoot bug: the sleep must be clamped to the remaining idle budget,
// so a quiet file reports EOF within ~idle even when pollMax is huge.
// The broken reader slept a full unclamped backoff step past the
// deadline — with idle=320ms and pollMin=10ms the doubling sequence
// (10+20+40+80+160=310ms) left 10ms of budget and then slept another
// 320ms, reporting EOF at ~630ms instead of ~320ms.
func TestTailIdleDeadlineIsSharp(t *testing.T) {
	const idle = 320 * time.Millisecond
	tr := &tailReader{f: &eofReader{}, idle: idle, pollMin: 10 * time.Millisecond, pollMax: 5 * time.Second}
	start := time.Now()
	n, err := tr.Read(make([]byte, 16))
	elapsed := time.Since(start)
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("idle tail must end in EOF, got n=%d err=%v", n, err)
	}
	if elapsed < idle {
		t.Fatalf("gave up after %v, before the %v idle window", elapsed, idle)
	}
	if elapsed > idle+150*time.Millisecond {
		t.Fatalf("EOF took %v for a %v idle window — backoff sleep not clamped to the deadline", elapsed, idle)
	}
}
