package snoop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"time"
)

// errClass buckets a scanner-terminal error the way callers triage them;
// the BatchScanner and the reference decoder must always land in the
// same bucket.
func errClass(err error) string {
	switch {
	case err == nil:
		return "clean"
	case errors.Is(err, ErrBadFraming):
		return "bad-framing"
	case errors.Is(err, ErrBadMagic):
		return "bad-magic"
	case errors.Is(err, ErrBadVersion):
		return "bad-version"
	case errors.Is(err, ErrBadDatalink):
		return "bad-datalink"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	default:
		return "error"
	}
}

// collectBatches drains a BatchScanner, checking per-batch frame
// numbering, and returns deep-copied records plus the scanner's final
// state.
func collectBatches(t testing.TB, sc *BatchScanner) []Record {
	t.Helper()
	var (
		out  []Record
		slab Slab
		b    RecordBatch
	)
	for sc.ScanBatch(&b) {
		if len(b.Records) == 0 {
			t.Fatal("ScanBatch returned true with an empty batch")
		}
		if b.First != len(out)+1 {
			t.Fatalf("batch First=%d at position %d", b.First, len(out)+1)
		}
		for _, rec := range b.Records {
			out = append(out, rec.CloneInto(&slab))
		}
		if sc.Frame() != len(out) {
			t.Fatalf("Frame()=%d after %d records", sc.Frame(), len(out))
		}
	}
	return out
}

func recordsEqual(t testing.TB, name string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Data, want[i].Data) ||
			got[i].Flags != want[i].Flags ||
			got[i].OriginalLength != want[i].OriginalLength ||
			got[i].CumulativeDrops != want[i].CumulativeDrops ||
			!got[i].Timestamp.Equal(want[i].Timestamp) {
			t.Fatalf("%s: record %d differs:\n batch %+v\n want  %+v", name, i, got[i], want[i])
		}
	}
}

// TestBatchScannerMatchesScanner pins both scanner modes to the
// record-at-a-time reference decoder on clean captures: records, frame
// numbering, final offset and datalink.
func TestBatchScannerMatchesScanner(t *testing.T) {
	captures := map[string][]byte{
		"sample": serializeRecords(t, fixLengths(sampleRecords())),
	}
	captures["synthetic"], _ = synthCapture(t, 5000, 7)

	for name, data := range captures {
		want, wantOff, class := refScanner(data)
		if class != "clean" {
			t.Fatalf("%s: reference scanner: %s", name, class)
		}

		for mode, bs := range map[string]*BatchScanner{
			"stream": NewBatchScanner(bytes.NewReader(data)),
			"bytes":  NewBatchScannerBytes(data),
		} {
			got := collectBatches(t, bs)
			if err := bs.Err(); err != nil {
				t.Fatalf("%s/%s: batch scanner: %v", name, mode, err)
			}
			recordsEqual(t, name+"/"+mode, got, want)
			if bs.Offset() != wantOff {
				t.Fatalf("%s/%s: offset %d, reference %d", name, mode, bs.Offset(), wantOff)
			}
			if bs.Datalink() != DatalinkH4 {
				t.Fatalf("%s/%s: datalink %d, want %d", name, mode, bs.Datalink(), DatalinkH4)
			}
		}
	}
}

// TestBatchScannerTrickleLiveness feeds the stream one byte per Read: a
// live socket dribbling records must still yield every record (ScanBatch
// cannot stall waiting for a full block), with identical results.
func TestBatchScannerTrickleLiveness(t *testing.T) {
	data, _ := synthCapture(t, 200, 3)
	want, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBatchScanner(iotest.OneByteReader(bytes.NewReader(data)))
	got := collectBatches(t, bs)
	if err := bs.Err(); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, "trickle", got, want)
	if bs.Offset() != int64(len(data)) {
		t.Fatalf("offset %d, want %d", bs.Offset(), len(data))
	}
}

// TestBatchScannerTruncationBoundaries cuts a capture at every byte
// offset: the batch scanner must agree with the reference decoder on
// record count, final Offset, and error class at every cut — the
// death-offset contract blapd's stream-end events rely on.
func TestBatchScannerTruncationBoundaries(t *testing.T) {
	data, _ := synthCapture(t, 40, 21)
	for cut := 0; cut <= len(data); cut++ {
		prefix := data[:cut]
		want, wantOff, wantClass := refScanner(prefix)

		for mode, bs := range map[string]*BatchScanner{
			"stream": NewBatchScanner(bytes.NewReader(prefix)),
			"bytes":  NewBatchScannerBytes(prefix),
		} {
			var b RecordBatch
			gotN := 0
			for bs.ScanBatch(&b) {
				gotN += len(b.Records)
			}
			if gotN != len(want) {
				t.Fatalf("cut %d/%s: batch %d records, reference %d", cut, mode, gotN, len(want))
			}
			if got := errClass(bs.Err()); got != wantClass {
				t.Fatalf("cut %d/%s: batch error %q (%v), reference %q",
					cut, mode, got, bs.Err(), wantClass)
			}
			if bs.Offset() != wantOff {
				t.Fatalf("cut %d/%s: batch offset %d, reference %d", cut, mode, bs.Offset(), wantOff)
			}
			// Scanning past the failure must stay stopped.
			if bs.ScanBatch(&b) {
				t.Fatalf("cut %d/%s: ScanBatch returned true after stop", cut, mode)
			}
		}
	}
}

// TestBatchScannerBadFraming pins the two framing-error contracts: the
// records before a corrupt header are still delivered, and Offset rewinds
// to the offending header's start.
func TestBatchScannerBadFraming(t *testing.T) {
	recs := fixLengths(sampleRecords())
	data := serializeRecords(t, recs)
	bad := append([]byte(nil), data...)
	secondHdr := 16 + 24 + len(recs[0].Data)
	bad[secondHdr+3] = 1 // original length = 1 < included: bad framing

	bs := NewBatchScanner(bytes.NewReader(bad))
	got := collectBatches(t, bs)
	if len(got) != 1 {
		t.Fatalf("delivered %d records before the bad header, want 1", len(got))
	}
	err := bs.Err()
	if !errors.Is(err, ErrBadFraming) {
		t.Fatalf("want ErrBadFraming, got %v", err)
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("framing error misclassified as truncation: %v", err)
	}
	if got := bs.Offset(); got != int64(secondHdr) {
		t.Fatalf("Offset() = %d, want bad header start %d", got, secondHdr)
	}
}

// TestBatchScannerGiantRecordAndShrink: a record larger than the block
// size must still decode (joined from every block it spans, in a buffer
// sized to the record), and a long run of small records afterwards must
// decode in place in pool blocks, so the high-water allocation is not
// kept.
func TestBatchScannerGiantRecordAndShrink(t *testing.T) {
	const giant = 300 << 10 // > defaultBatchBytes
	const small = 72
	recs := []Record{{Flags: FlagCommandEvent, Timestamp: CaptureBase, Data: make([]byte, giant)}}
	for i := 0; i < small; i++ {
		recs = append(recs, Record{Flags: FlagCommandEvent, Timestamp: CaptureBase, Data: []byte{0x01, 0x03, 0x0c, 0x00}})
	}
	data := serializeRecords(t, fixLengths(recs))
	want, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}

	bs := NewBatchScanner(bytes.NewReader(data))
	var (
		b    RecordBatch
		slab Slab
		got  []Record
	)
	peak, last := 0, 0
	for bs.ScanBatch(&b) {
		peak = max(peak, cap(bs.span))
		last = cap(bs.span)
		for _, rec := range b.Records {
			got = append(got, rec.CloneInto(&slab))
		}
	}
	if err := bs.Err(); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, "giant", got, want)
	if peak < giant {
		t.Fatalf("scan span peaked at %d, the giant record needed %d", peak, giant)
	}
	if last > BlockHeadroom+defaultBatchBytes {
		t.Fatalf("scan span still holds %d bytes after %d small records", last, small)
	}
}

// TestBatchValidAcrossHandoff models the sentinel ring: records decoded
// into batch A must stay intact while the scanner fills batch B.
func TestBatchValidAcrossHandoff(t *testing.T) {
	data, _ := synthCapture(t, 3000, 11)
	want, err := ReadAll(data)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBatchScannerSize(bytes.NewReader(data), 4<<10)
	batches := [2]RecordBatch{}
	var (
		got  []Record
		slab Slab
	)
	i := 0
	for {
		prev := &batches[i%2]
		next := &batches[(i+1)%2]
		ok := bs.ScanBatch(next)
		// Copy the previous batch only after the next fill, proving the
		// fill did not clobber it.
		for _, rec := range prev.Records {
			got = append(got, rec.CloneInto(&slab))
		}
		if !ok {
			break
		}
		i++
	}
	if err := bs.Err(); err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, "handoff", got, want)
}

func TestSlabCopy(t *testing.T) {
	var s Slab
	a := s.Copy([]byte{1, 2, 3})
	b := s.Copy(bytes.Repeat([]byte{9}, 4))
	empty := s.Copy(nil)
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty copy: %v", empty)
	}
	// Appending to one copy must not bleed into its neighbor.
	a = append(a, 0xFF)
	if b[0] != 9 {
		t.Fatal("slab copies alias each other")
	}
	if !bytes.Equal(a[:3], []byte{1, 2, 3}) {
		t.Fatal("copy lost its contents")
	}
	// A payload larger than the chunk gets its own block.
	big := s.Copy(make([]byte, defaultSlabChunk+1))
	if len(big) != defaultSlabChunk+1 {
		t.Fatalf("big copy length %d", len(big))
	}
}

func BenchmarkBatchScanner(b *testing.B) {
	data, stats := synthCapture(b, 250000, 9)
	newScanner := map[string]func() *BatchScanner{
		"stream": func() *BatchScanner { return NewBatchScannerSize(bytes.NewReader(data), 256<<10) },
		"bytes":  func() *BatchScanner { return NewBatchScannerBytes(data) },
	}
	for _, mode := range []string{"stream", "bytes"} {
		b.Run(mode, func(b *testing.B) {
			b.SetBytes(stats.Bytes)
			b.ReportAllocs()
			var batch RecordBatch
			for i := 0; i < b.N; i++ {
				sc := newScanner[mode]()
				n := 0
				for sc.ScanBatch(&batch) {
					n += len(batch.Records)
				}
				if err := sc.Err(); err != nil || n != stats.Records {
					b.Fatalf("records=%d err=%v", n, err)
				}
			}
		})
	}
}

// TestScanBatchKeepMatchesFiltering pins the in-sweep prefilter to the
// obvious reference: scanning everything and filtering afterwards. Kept
// records, their absolute frame numbers, the final offset, and the error
// class must all match — on clean captures and on every truncation of
// one — in both stream and bytes modes.
func TestScanBatchKeepMatchesFiltering(t *testing.T) {
	data, _ := synthCapture(t, 2000, 13)
	keep := func(p []byte) bool { return len(p) > 0 && p[0] == 0x04 } // events only

	for _, cut := range []int{len(data), len(data) - 1, len(data) - 11, len(data) / 2, 40, 16, 15, 0} {
		trunc := data[:cut]

		ref := NewBatchScannerBytes(trunc)
		var want []Record
		var wantFrames []int
		var rb RecordBatch
		for ref.ScanBatch(&rb) {
			for i := range rb.Records {
				if keep(rb.Records[i].Data) {
					want = append(want, rb.Records[i].Clone())
					wantFrames = append(wantFrames, rb.First+i)
				}
			}
		}

		for mode, sc := range map[string]*BatchScanner{
			"stream":  NewBatchScannerSize(bytes.NewReader(trunc), 4<<10),
			"trickle": NewBatchScanner(iotest.OneByteReader(bytes.NewReader(trunc))),
			"bytes":   NewBatchScannerBytes(trunc),
		} {
			var got []Record
			var frames []int
			var b RecordBatch
			lastFrame := 0
			for sc.ScanBatchKeep(&b, keep) {
				// Empty batches are legal (a swept block of rejected
				// records) but must always carry frame progress.
				if len(b.Records) == 0 && sc.Frame() <= lastFrame {
					t.Fatalf("cut=%d %s: empty batch without progress", cut, mode)
				}
				lastFrame = sc.Frame()
				if len(b.Frames) != len(b.Records) {
					t.Fatalf("cut=%d %s: %d frames for %d records", cut, mode, len(b.Frames), len(b.Records))
				}
				for i := range b.Records {
					got = append(got, b.Records[i].Clone())
					frames = append(frames, b.Frames[i])
				}
			}
			if gc, wc := errClass(sc.Err()), errClass(ref.Err()); gc != wc {
				t.Fatalf("cut=%d %s: error class %q, unfiltered %q", cut, mode, gc, wc)
			}
			if sc.Offset() != ref.Offset() {
				t.Fatalf("cut=%d %s: offset %d, unfiltered %d", cut, mode, sc.Offset(), ref.Offset())
			}
			if sc.Frame() != ref.Frame() {
				t.Fatalf("cut=%d %s: frame %d, unfiltered %d", cut, mode, sc.Frame(), ref.Frame())
			}
			recordsEqual(t, fmt.Sprintf("cut=%d/%s", cut, mode), got, want)
			if !reflect.DeepEqual(frames, wantFrames) {
				t.Fatalf("cut=%d %s: kept frames diverge:\n got %v\nwant %v", cut, mode, frames, wantFrames)
			}
		}
	}
}

// TestScanBatchKeepRejectAll: a filter that rejects everything must
// still consume the stream, end cleanly, and report the full offset —
// yielding only empty batches, each one representing forward progress
// (the liveness contract the sentinel pipeline's counters rely on).
func TestScanBatchKeepRejectAll(t *testing.T) {
	data, stats := synthCapture(t, 500, 2)
	for mode, sc := range map[string]*BatchScanner{
		"stream": NewBatchScanner(bytes.NewReader(data)),
		"bytes":  NewBatchScannerBytes(data),
	} {
		var b RecordBatch
		lastFrame := 0
		for sc.ScanBatchKeep(&b, func([]byte) bool { return false }) {
			if len(b.Records) != 0 {
				t.Fatalf("%s: reject-all yielded %d records", mode, len(b.Records))
			}
			if sc.Frame() <= lastFrame {
				t.Fatalf("%s: empty batch without progress at frame %d", mode, lastFrame)
			}
			lastFrame = sc.Frame()
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if sc.Offset() != int64(len(data)) || sc.Frame() != stats.Records {
			t.Fatalf("%s: offset=%d frame=%d, want %d/%d", mode, sc.Offset(), sc.Frame(), len(data), stats.Records)
		}
	}
}

// TestBlockPoolBound pins the read-ahead bound of a bounded pool: it
// allocates at most depth blocks, lazily; Get waits while every block is
// out and takes the first one released; Close wakes a waiting Get with
// nil.
func TestBlockPoolBound(t *testing.T) {
	const depth = 3
	p := NewBlockPool(depth, 4<<10)
	var out []*Block
	for i := 0; i < depth; i++ {
		b := p.Get()
		if len(b.buf) != BlockHeadroom+4<<10 || b.start != BlockHeadroom {
			t.Fatalf("block %d: %d bytes with the read area at %d", i, len(b.buf), b.start)
		}
		out = append(out, b)
	}
	got := make(chan *Block)
	go func() { got <- p.Get() }()
	select {
	case b := <-got:
		t.Fatalf("Get returned %p with all %d blocks out", b, depth)
	case <-time.After(20 * time.Millisecond):
	}
	out[1].refs.Add(1) // a batch holds it too
	out[1].release()
	select {
	case b := <-got:
		t.Fatalf("Get returned %p while a batch still held the block", b)
	case <-time.After(20 * time.Millisecond):
	}
	out[1].release()
	if b := <-got; b != out[1] || b.refs.Load() != 1 {
		t.Fatalf("Get returned %p (refs %d), want the released block %p with one reference", b, b.refs.Load(), out[1])
	}
	if p.made != depth {
		t.Fatalf("pool allocated %d blocks, want %d", p.made, depth)
	}
	go func() { got <- p.Get() }()
	p.Close()
	if b := <-got; b != nil {
		t.Fatalf("Get after Close returned %p", b)
	}
}
