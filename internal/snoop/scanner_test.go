package snoop

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/hci"
)

// synthCapture builds a small deterministic synthetic capture for tests.
func synthCapture(t testing.TB, records int, seed int64) ([]byte, SynthStats) {
	t.Helper()
	var buf bytes.Buffer
	stats, err := Synthesize(&buf, SynthConfig{Records: records, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

func serializeRecords(t testing.TB, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.WriteRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestScannerMatchesReadAll streams captures through a BatchScanner with
// the smallest block size, so records straddle block boundaries and
// ride the partial-element carry, and checks the result against ReadAll.
func TestScannerMatchesReadAll(t *testing.T) {
	captures := map[string][]byte{
		"sample": serializeRecords(t, fixLengths(sampleRecords())),
	}
	captures["synthetic"], _ = synthCapture(t, 2000, 7)

	for name, data := range captures {
		want, err := ReadAll(data)
		if err != nil {
			t.Fatalf("%s: ReadAll: %v", name, err)
		}
		sc := NewBatchScannerSize(bytes.NewReader(data), 4<<10)
		got := collectBatches(t, sc)
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: scanner: %v", name, err)
		}
		if sc.Datalink() != DatalinkH4 {
			t.Fatalf("%s: datalink %d", name, sc.Datalink())
		}
		recordsEqual(t, name, got, want)
	}
}

// TestScannerTruncationBoundaries truncates a valid capture at every byte
// offset and checks that a streaming BatchScanner and ReadAll agree on
// the record count and on whether the prefix is an error.
func TestScannerTruncationBoundaries(t *testing.T) {
	data := serializeRecords(t, fixLengths(sampleRecords()))
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		want, wantErr := ReadAll(prefix)

		sc := NewBatchScannerSize(bytes.NewReader(prefix), 4<<10)
		var b RecordBatch
		got := 0
		for sc.ScanBatch(&b) {
			got += len(b.Records)
		}
		gotErr := sc.Err()

		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("cut %d: ReadAll err %v, scanner err %v", cut, wantErr, gotErr)
		}
		if got != len(want) {
			t.Fatalf("cut %d: ReadAll %d records, scanner %d", cut, len(want), got)
		}
		// Scanning past the failure must stay stopped.
		if sc.ScanBatch(&b) {
			t.Fatalf("cut %d: ScanBatch returned true after stop", cut)
		}
	}
}

// TestScannerClassifiesDeathOffsets cuts a capture at every byte offset:
// a cut on a record boundary is a cleanly closed log (nil Err), any
// other cut is mid-record truncation that must wrap io.ErrUnexpectedEOF
// (and still ErrTruncated for older callers), with Offset reporting
// exactly where the bytes ran out.
func TestScannerClassifiesDeathOffsets(t *testing.T) {
	data, _ := synthCapture(t, 50, 21)

	recs, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(16)
	boundaries := map[int64]bool{off: true} // after the file header
	for _, rec := range recs {
		off += int64(24 + len(rec.Data))
		boundaries[off] = true
	}
	if off != int64(len(data)) {
		t.Fatalf("records end at offset %d, capture is %d bytes", off, len(data))
	}

	var b RecordBatch

	for cut := 0; cut <= len(data); cut++ {
		sc := NewBatchScanner(bytes.NewReader(data[:cut]))
		for sc.ScanBatch(&b) {
		}
		err := sc.Err()
		if boundaries[int64(cut)] {
			if err != nil {
				t.Fatalf("cut %d (boundary): unexpected error %v", cut, err)
			}
		} else {
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d: want io.ErrUnexpectedEOF in chain, got %v", cut, err)
			}
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut %d: want ErrTruncated in chain, got %v", cut, err)
			}
			if errors.Is(err, ErrBadFraming) {
				t.Fatalf("cut %d: truncation misclassified as framing error: %v", cut, err)
			}
		}
		if got := sc.Offset(); got != int64(cut) {
			t.Fatalf("cut %d: Offset() = %d", cut, got)
		}
	}
}

func TestFramingValidationRejectsInflatedLength(t *testing.T) {
	data := serializeRecords(t, []Record{
		{Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4},
	})
	// Record header starts at byte 16: original length [0:4], included
	// length [4:8], both big-endian. Claim more captured than original.
	bad := append([]byte(nil), data...)
	bad[16+3] = 2 // original length = 2, included stays 4

	if _, err := ReadAll(bad); !errors.Is(err, ErrBadFraming) {
		t.Errorf("ReadAll: want ErrBadFraming, got %v", err)
	}
	sc := NewBatchScanner(bytes.NewReader(bad))
	var b RecordBatch
	for sc.ScanBatch(&b) {
	}
	if err := sc.Err(); !errors.Is(err, ErrBadFraming) {
		t.Errorf("BatchScanner: want ErrBadFraming, got %v", err)
	}
}

func TestWriterDefaultsOriginalLength(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	wire := []byte{0x01, 0x03, 0x0c, 0x00}
	if err := w.WriteRecord(Record{Data: wire}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].OriginalLength != uint32(len(wire)) {
		t.Fatalf("original length %d, want %d", recs[0].OriginalLength, len(wire))
	}
	if recs[0].Truncated() {
		t.Fatal("defaulted record must not read as truncated")
	}
}

func TestSynthesizeDeterministicAndScannable(t *testing.T) {
	a, stats := synthCapture(t, 5000, 42)
	b, stats2 := synthCapture(t, 5000, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("same config must produce byte-identical captures")
	}
	if stats != stats2 {
		t.Fatalf("stats differ: %+v vs %+v", stats, stats2)
	}
	if stats.Records != 5000 {
		t.Fatalf("records %d, want 5000", stats.Records)
	}
	if int64(len(a)) != stats.Bytes {
		t.Fatalf("stats.Bytes %d, file %d", stats.Bytes, len(a))
	}
	if stats.Sessions == 0 || stats.KeyExposures == 0 || stats.BlockedSessions == 0 ||
		stats.StalledSessions == 0 || stats.FailedConnects == 0 {
		t.Fatalf("capture missing scenario coverage: %+v", stats)
	}

	c, _ := synthCapture(t, 5000, 43)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds must differ")
	}

	hits, err := ScanLinkKeys(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != stats.KeyExposures {
		t.Fatalf("ScanLinkKeys found %d keys, stats say %d", len(hits), stats.KeyExposures)
	}
}

func TestStreamingRendersMatchInMemory(t *testing.T) {
	data, _ := synthCapture(t, 1500, 3)
	recs, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}

	want := Summarize(recs)
	// The streaming half runs the per-block loop hcidump's table mode
	// uses: SummarizeRecord over each block of a BatchScanner.
	var got []FrameSummary
	sc := NewBatchScanner(bytes.NewReader(data))
	var b RecordBatch
	for sc.ScanBatch(&b) {
		for i, rec := range b.Records {
			if row, ok := SummarizeRecord(b.First+i, rec); ok {
				got = append(got, row)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream %d rows, in-memory %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs:\n stream %+v\n memory %+v", i, got[i], want[i])
		}
	}

	wantKeys := ExtractLinkKeys(recs)
	gotKeys, err := ScanLinkKeys(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotKeys) != len(wantKeys) {
		t.Fatalf("stream %d keys, in-memory %d", len(gotKeys), len(wantKeys))
	}
	for i := range wantKeys {
		if gotKeys[i] != wantKeys[i] {
			t.Fatalf("key %d differs: %+v vs %+v", i, gotKeys[i], wantKeys[i])
		}
	}

	// RenderTable output decomposes into TableHeader + FormatRow lines.
	var streamed bytes.Buffer
	streamed.WriteString(TableHeader())
	for _, r := range got {
		streamed.WriteString(FormatRow(r))
	}
	if streamed.String() != RenderTable(want) {
		t.Fatal("streamed table differs from RenderTable")
	}
}

func TestHCIDumpWriteTo(t *testing.T) {
	d := NewHCIDump()
	d.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.Reset{}).Wire())
	d.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.InquiryComplete{Status: hci.StatusSuccess}).Wire())

	want, err := d.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := d.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("WriteTo differs from Bytes")
	}
	var _ io.WriterTo = d
}
