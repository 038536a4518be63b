package snoop

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
// record header, and payload boundaries, bad framing, and records longer
// than a block. The batch path runs over a plain reader, a
// one-byte-per-Read stream, and the in-memory mode; the block path
// (checkBlockScans) runs over block splits drawn from split, with
// tiny headrooms so partial records straddle blocks through the joined
// buffer, with the read error delivered together with the last bytes or
// alone, with a transport error cutting the stream, and resumed at a
// record boundary.
func FuzzScanner(f *testing.F) {
	var seed bytes.Buffer
	w := NewWriter(&seed)
	_ = w.WriteRecord(Record{Data: []byte{0x01, 0x03, 0x0c, 0x00}, OriginalLength: 4})
	_ = w.WriteRecord(Record{Data: []byte{0x04, 0x01, 0x00}, OriginalLength: 3, Flags: FlagDirectionReceived})
	full := seed.Bytes()
	f.Add(full, uint64(0))
	for _, cut := range []int{0, 7, 15, 16, 17, 39, 40, 41, 43, len(full) - 1} {
		if cut >= 0 && cut < len(full) {
			f.Add(append([]byte(nil), full[:cut]...), uint64(cut))
		}
	}
	bad := append([]byte(nil), full...)
	bad[16+3] = 2 // included length exceeds original: ErrBadFraming
	f.Add(bad, uint64(3))
	// Records longer than any block, up to maxRecord, between short ones.
	var long bytes.Buffer
	w = NewWriter(&long)
	for _, n := range []int{5, 300, 70 << 10, 3, maxRecord, 7} {
		_ = w.WriteRecord(Record{Data: bytes.Repeat([]byte{byte(n)}, n)})
	}
	f.Add(long.Bytes(), uint64(0x9e3779b97f4a7c15))
	f.Add(long.Bytes()[:long.Len()-40], uint64(7))
	f.Fuzz(func(t *testing.T, raw []byte, split uint64) {
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
			checkScan(t, name, bs, 0, scanned, refOff, refClass)
		}
		checkBlockScans(t, raw, split, scanned, refOff, refClass)
	})
}

// checkScan drains bs, whose first frame is first+1, and compares what
// it delivered with the reference records want[first:] and end state.
func checkScan(t *testing.T, name string, bs *BatchScanner, first int, want []Record, refOff int64, refClass string) {
	t.Helper()
	var (
		b    RecordBatch
		slab Slab
		got  []Record
	)
	for bs.ScanBatch(&b) {
		if b.First != first+len(got)+1 {
			t.Fatalf("%s: batch First=%d at position %d", name, b.First, first+len(got)+1)
		}
		for _, rec := range b.Records {
			got = append(got, rec.CloneInto(&slab))
		}
	}
	b.Release()
	if gc := errClass(bs.Err()); gc != refClass {
		t.Fatalf("%s: batch error %q (%v), reference %q", name, gc, bs.Err(), refClass)
	}
	if bs.Offset() != refOff {
		t.Fatalf("%s: batch offset %d, reference %d", name, bs.Offset(), refOff)
	}
	if bs.Frame() != len(want) {
		t.Fatalf("%s: batch frame %d, reference %d records", name, bs.Frame(), len(want))
	}
	recordsEqual(t, name, got, want[first:])
}

// errTransport stands in for a socket failure delivered by a read.
var errTransport = errors.New("transport failed")

// checkBlockScans runs the block path over raw cut into blocks drawn
// from split, and checks every scan against the reference and that
// every block handed out was released by the end.
func checkBlockScans(t *testing.T, raw []byte, split uint64, want []Record, refOff int64, refClass string) {
	t.Helper()
	rng := split | 1
	for _, mode := range []string{"split", "split-eof-alone", "split-1byte", "split-cut", "split-resumed"} {
		if mode == "split-1byte" && len(raw) > 4096 {
			continue // one block per byte: small inputs only
		}
		src := newSplitSource(raw, &rng, mode)
		name := fmt.Sprintf("%s/%#x", mode, split)
		switch mode {
		case "split-cut":
			// A transport error after a prefix: the reference over the
			// prefix, with a clean or truncated end turned into the
			// transport error.
			cut := int(xorshift(&rng) % uint64(len(raw)+1))
			src.data, src.endErr = raw[:cut], errTransport
			pre, off, class := refScanner(raw[:cut])
			if class == "clean" || class == "truncated" {
				class = "error"
			}
			checkScan(t, name, NewBlockScanner(src), 0, pre, off, class)
		case "split-resumed":
			// Resume after a reference record boundary, as a checkpoint
			// would; needs a valid file header.
			if len(raw) < 16 || (len(want) == 0 && refClass != "clean" && refOff <= 16) {
				continue
			}
			dl, err := parseFileHeader((*[16]byte)(raw[:16]))
			if err != nil {
				continue
			}
			k := int(xorshift(&rng) % uint64(len(want)+1))
			off := int64(16)
			for _, rec := range want[:k] {
				off += 24 + int64(len(rec.Data))
			}
			src.data = raw[off:]
			checkScan(t, name, ResumeBlockScanner(src, off, k, dl), k, want, refOff, refClass)
		default:
			checkScan(t, name, NewBlockScanner(src), 0, want, refOff, refClass)
		}
		for i, blk := range src.out {
			if r := blk.refs.Load(); r != 0 {
				t.Fatalf("%s: block %d of %d still holds %d references after the scan", name, i, len(src.out), r)
			}
		}
	}
}

// splitSource is a BlockSource over an in-memory stream cut into blocks
// of pseudo-random sizes, each with a pseudo-random headroom of at most
// 48 bytes (or the full BlockHeadroom), so a partial record longer than
// its block's headroom takes the joined path even in a small input. The
// last block carries endErr together with the last bytes, or alone in
// "split-eof-alone" mode. It keeps every block it hands out.
type splitSource struct {
	data   []byte
	rng    *uint64
	mode   string
	endErr error
	total  int
	pool   *BlockPool
	out    []*Block
	done   bool
}

func newSplitSource(data []byte, rng *uint64, mode string) *splitSource {
	return &splitSource{data: data, rng: rng, mode: mode, endErr: io.EOF, total: len(data),
		pool: &BlockPool{free: make(chan *Block, 1)}}
}

func (s *splitSource) Next() *Block {
	if s.done {
		return nil
	}
	// At least 1/1024 of the input per block, so a large input costs at
	// most about a thousand blocks.
	n, floor := len(s.data), max(1, s.total/1024)
	switch r := xorshift(s.rng); {
	case s.mode == "split-1byte":
		n = min(n, 1)
	case r%4 == 0:
		n = min(n, max(floor, int(r>>8%8)+1))
	case r%4 == 1:
		n = min(n, max(floor, int(r>>8%4096)+1))
	case r%4 == 2:
		n = min(n, max(floor, int(r>>8%(200<<10))+1))
	}
	head := BlockHeadroom
	if r := xorshift(s.rng); r%8 != 0 {
		head = int(r >> 8 % 49)
	}
	blk := &Block{buf: make([]byte, head+n), start: head, n: n, pool: s.pool}
	copy(blk.buf[head:], s.data[:n])
	s.data = s.data[n:]
	if len(s.data) == 0 && (n == 0 || s.mode != "split-eof-alone") {
		blk.err, s.done = s.endErr, true
	}
	blk.refs.Store(1)
	s.out = append(s.out, blk)
	return blk
}

func xorshift(x *uint64) uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return *x
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
