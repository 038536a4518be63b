package snoop

import (
	"bytes"
	"testing"
	"testing/iotest"
)

// FuzzReadAll throws arbitrary bytes at the btsnoop reader: no panics, no
// unbounded allocations, and anything accepted must re-serialize.
func FuzzReadAll(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.WriteRecord(Record{Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4})
	f.Add(seed.Bytes())
	f.Add([]byte("btsnoop\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, err := ReadAll(raw)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if err := w.WriteRecord(r); err != nil {
				t.Fatalf("re-serialize: %v", err)
			}
		}
	})
}

// FuzzScanner is the three-way differential: ReadAll, the reference
// decoder (refScanner), and the BatchScanner must yield identical record
// sequences, frame numbers, final Offset, and error classification
// (clean EOF / ErrTruncated / ErrBadFraming / bad header) on arbitrary
// bytes, with no panics. Seeds cover truncation at the file header,
// record header, and payload boundaries, plus bad framing. The batch
// path additionally runs over a one-byte-per-Read stream to exercise
// every partial-buffer carry path.
func FuzzScanner(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.WriteRecord(Record{Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4})
	_ = w.WriteRecord(Record{Data: []byte{0x04, 0x01, 0x00}, OriginalLength: 3, Flags: FlagDirectionReceived})
	full := seed.Bytes()
	f.Add(full)
	for _, cut := range []int{0, 7, 15, 16, 17, 39, 40, 41, 43, len(full) - 1} {
		if cut >= 0 && cut < len(full) {
			f.Add(append([]byte(nil), full[:cut]...))
		}
	}
	bad := append([]byte(nil), full...)
	bad[16+3] = 2 // included length exceeds original: ErrBadFraming
	f.Add(bad)
	f.Fuzz(func(t *testing.T, raw []byte) {
		recs, readErr := ReadAll(raw)

		scanned, refOff, refClass := refScanner(raw)
		if (readErr == nil) != (refClass == "clean") {
			t.Fatalf("ReadAll err=%v, reference %q", readErr, refClass)
		}
		if len(scanned) != len(recs) {
			t.Fatalf("ReadAll %d records, reference %d", len(recs), len(scanned))
		}

		for name, bs := range map[string]*BatchScanner{
			"block":   NewBatchScanner(bytes.NewReader(raw)),
			"trickle": NewBatchScanner(iotest.OneByteReader(bytes.NewReader(raw))),
			"bytes":   NewBatchScannerBytes(raw),
		} {
			var (
				b    RecordBatch
				slab Slab
				got  []Record
			)
			for bs.ScanBatch(&b) {
				if b.First != len(got)+1 {
					t.Fatalf("%s: batch First=%d at position %d", name, b.First, len(got)+1)
				}
				for _, rec := range b.Records {
					got = append(got, rec.CloneInto(&slab))
				}
			}
			if gc := errClass(bs.Err()); gc != refClass {
				t.Fatalf("%s: batch error %q (%v), reference %q", name, gc, bs.Err(), refClass)
			}
			if bs.Offset() != refOff {
				t.Fatalf("%s: batch offset %d, reference %d", name, bs.Offset(), refOff)
			}
			if bs.Frame() != len(scanned) {
				t.Fatalf("%s: batch frame %d, reference %d records", name, bs.Frame(), len(scanned))
			}
			recordsEqual(t, name, got, scanned)
		}
	})
}

// FuzzExtractLinkKeys must tolerate arbitrary record contents.
func FuzzExtractLinkKeys(f *testing.F) {
	f.Add([]byte{0x01, 0x0b, 0x04, 0x16}, uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, flags uint32) {
		recs := []Record{{Data: data, Flags: flags, OriginalLength: uint32(len(data))}}
		ExtractLinkKeys(recs)
		Summarize(recs)
	})
}
