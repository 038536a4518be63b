package snoop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// BatchScanner is the btsnoop decoder. A stream arrives as blocks —
// one read's worth of bytes each, in a buffer with headroom in front —
// and a single in-memory sweep decodes every complete record header in
// a block where it lies, so steady-state cost is one read and one sweep
// per block rather than two reads per ~50-byte record. The partial
// record a block ends on is copied into the next block's headroom and
// decoded there; one longer than the headroom is collected into a
// one-off joined buffer from as many blocks as it spans. For captures
// already in memory, NewBatchScannerBytes decodes records aliasing the
// input as one block with nothing to carry.
//
//	sc := snoop.NewBatchScanner(r)
//	var b snoop.RecordBatch
//	for sc.ScanBatch(&b) {
//		for i := range b.Records { ... } // Data valid until the next ScanBatch on b
//	}
//	if err := sc.Err(); err != nil { ... }
//
// There is one stream path. A plain io.Reader gets a synchronous block
// source: each block is one Read on the scanning goroutine. A caller
// that reads ahead on a goroutine of its own (the sentinel daemon's
// transport stage) fills blocks from a bounded BlockPool and hands them
// over through a BlockSource; its scanner decodes them in place, and a
// block goes back to the pool once the scanner has moved past it and
// every batch holding records from it has been released.
//
// Liveness: ScanBatch never waits for a full block — it returns as soon
// as at least one complete record is buffered, so a trickling live
// stream yields one-record batches at one-record latency while a bulk
// upload yields block-sized batches. That property is what lets the
// sentinel daemon run the same code for a phone dribbling HCI events
// and a 50 MB log replayed at socket speed.
//
// Errors are classified so callers can triage how a stream died: a
// clean end at a record boundary reports nil; a capture cut off
// mid-element wraps ErrTruncated and io.ErrUnexpectedEOF, with Offset at
// the byte where the data ran out; corrupt length framing wraps
// ErrBadFraming, with Offset rewound to the offending header; transport
// failures (e.g. a socket read deadline) keep their underlying error in
// the chain. FuzzScanner pins reader, trickle, split-block, resumed and
// bytes scans to a record-at-a-time reference decoder on arbitrary
// input.
type BatchScanner struct {
	src BlockSource
	// cur is the block being decoded, on the scanner's own reference;
	// nil before the first block, after the end, and in bytes mode.
	cur *Block
	// span is the bytes being decoded: cur's carried tail and read
	// bytes, or a joined record; pos is the consumed index into it.
	span []byte
	pos  int
	// rest, while span is a joined record, is where decoding resumes in
	// cur once that record is consumed; -1 otherwise.
	rest     int
	off      int64 // stream offset of the first unconsumed byte
	frame    int   // frames delivered so far
	err      error // terminal state; io.EOF means clean end
	rdErr    error // the source's terminal error, surfaced once buffered bytes drain
	started  bool
	datalink uint32
}

// RecordBatch is one batch of decoded records. Records[i].Data aliases
// the block the records were decoded from (or, in bytes mode, the input
// slice, and there is no block). The batch holds that block until Release, which ScanBatch
// calls first on the batch it is given — so a batch handed to another
// goroutine (the sentinel ring) stays valid until it is released, and a
// batch reused in a loop is valid until the next ScanBatch(&b).
// Payloads that must outlive the batch are copied, cheaply, via
// Slab.Copy rather than per-record Clone allocations.
type RecordBatch struct {
	// Records holds the batch's records in capture order.
	Records []Record
	// First is the 1-based frame number of the first record scanned for
	// this batch. Under ScanBatch, Records[i] is frame First+i; under
	// ScanBatchKeep batches are not contiguous and Frames is
	// authoritative instead.
	First int
	// Frames, filled only by ScanBatchKeep, holds the 1-based frame
	// number of each Records[i]. Empty for ScanBatch batches.
	Frames []int

	blk *Block // the pool block Records alias, held until Release
}

// Release hands the batch's block back towards its pool; Records must
// not be read after it. Releasing an empty or already released batch is
// a no-op.
func (b *RecordBatch) Release() {
	if b.blk != nil {
		b.blk.release()
		b.blk = nil
	}
}

const (
	// defaultBatchBytes is the read size of a plain io.Reader scan: large
	// enough that header decoding amortizes the syscall.
	defaultBatchBytes = 64 << 10

	// maxBatchRecords bounds Records growth per batch so a bytes-mode
	// scan over a million-record capture recycles one modest struct
	// slice instead of materializing them all at once.
	maxBatchRecords = 4096
)

// errSourceClosed ends a scan whose BlockSource closed without handing
// over a block that carries the stream's terminal error — a pipeline
// torn down mid-stream.
var errSourceClosed = errors.New("snoop: block source closed")

// NewBatchScanner returns a BatchScanner over a btsnoop stream with the
// default block size. It never wraps r in a bufio.Reader — the block is
// the read buffer.
func NewBatchScanner(r io.Reader) *BatchScanner {
	return NewBatchScannerSize(r, defaultBatchBytes)
}

// NewBatchScannerSize is NewBatchScanner with an explicit block size
// (bytes read per Read call). Values below 4 KiB are raised to 4 KiB.
// Batch analysis of on-disk captures profits from larger blocks (256
// KiB).
func NewBatchScannerSize(r io.Reader, blockBytes int) *BatchScanner {
	return NewBlockScanner(newReaderSource(r, blockBytes))
}

// NewBlockScanner returns a BatchScanner over the blocks src hands it.
func NewBlockScanner(src BlockSource) *BatchScanner {
	return &BatchScanner{src: src, rest: -1}
}

// ResumeBlockScanner returns a BatchScanner that continues a previously
// interrupted scan: src must deliver the capture's bytes starting at
// absolute offset off (a record boundary reached by the earlier scan),
// frame is the 1-based frame count already delivered, and datalink is
// the file header's datalink type (the header was consumed by the
// earlier scan and is not expected again). Offsets, frame numbers, and
// error classification continue exactly as if one scanner had read the
// whole stream — the resume contract blapd's session checkpoints rely
// on.
func ResumeBlockScanner(src BlockSource, off int64, frame int, datalink uint32) *BatchScanner {
	s := NewBlockScanner(src)
	s.started = true
	s.off = off
	s.frame = frame
	s.datalink = datalink
	return s
}

// ResumeBatchScanner is ResumeBlockScanner over a plain io.Reader.
func ResumeBatchScanner(r io.Reader, blockBytes int, off int64, frame int, datalink uint32) *BatchScanner {
	return ResumeBlockScanner(newReaderSource(r, blockBytes), off, frame, datalink)
}

// NewBatchScannerBytes returns a BatchScanner over an in-memory capture:
// the whole input is the span to decode, and the stream ends with it. No
// bytes are copied: batch records alias data directly, so the caller
// must not mutate data while batches are in use. Semantics are otherwise
// identical to the streaming scanner.
func NewBatchScannerBytes(data []byte) *BatchScanner {
	return &BatchScanner{span: data, rest: -1, rdErr: io.EOF}
}

// decodeSpan is the hot loop: it decodes every complete record in
// buf[pos:] into b (up to maxBatchRecords), advancing the scanner's
// offset and frame counters, and returns the new consumed position. A
// corrupt header stages s.err — positioned at the header's start, which
// is left unconsumed — and stops the sweep.
func (s *BatchScanner) decodeSpan(b *RecordBatch, buf []byte, pos int, keep func([]byte) bool) int {
	n := len(buf)
	off := s.off
	frame := s.frame
	recs := b.Records
	frames := b.Frames
	for n-pos >= 24 && len(recs) < maxBatchRecords {
		h := buf[pos : pos+24]
		orig := binary.BigEndian.Uint32(h)
		incl := binary.BigEndian.Uint32(h[4:8])
		if incl > maxRecord || incl > orig {
			s.off, s.frame = off, frame
			b.Records, b.Frames = recs, frames
			s.err = fmt.Errorf("record header at offset %d: %w", off, framingError(orig, incl))
			return pos
		}
		end := pos + 24 + int(incl)
		if end > n {
			break // payload not fully buffered yet
		}
		data := buf[pos+24 : end : end]
		pos = end
		off += int64(24 + incl)
		frame++
		if keep != nil {
			// Filtered scan: rejected payloads cost only the header sweep
			// — no Record construction, no timestamp conversion.
			if !keep(data) {
				continue
			}
			frames = append(frames, frame)
		}
		recs = append(recs, Record{
			OriginalLength:  orig,
			Flags:           binary.BigEndian.Uint32(h[8:12]),
			CumulativeDrops: binary.BigEndian.Uint32(h[12:16]),
			Timestamp:       time.UnixMicro(int64(binary.BigEndian.Uint64(h[16:24])) - btsnoopEpochDelta).UTC(),
			Data:            data,
		})
	}
	s.off, s.frame = off, frame
	b.Records, b.Frames = recs, frames
	return pos
}

// classifyEnd converts "the stream is over with `left` undecodable bytes
// buffered" into the terminal state: clean EOF at a boundary, a short
// file header, mid-header or mid-payload truncation with Offset advanced
// to the death byte, or the underlying transport error.
func (s *BatchScanner) classifyEnd(left int) {
	switch {
	case !s.started:
		s.off += int64(left)
		s.err = fmt.Errorf("%w: file header: %w", ErrTruncated, eofUnexpected(s.rdErr))
	case left == 0:
		if s.rdErr == io.EOF {
			// Zero bytes at a record boundary: the clean end of a log.
			s.err = io.EOF
		} else {
			s.err = fmt.Errorf("%w: record header at offset %d: %w",
				ErrTruncated, s.off, s.rdErr)
		}
	case left < 24:
		hdrStart := s.off
		s.off += int64(left)
		s.err = fmt.Errorf("%w: record header at offset %d: %w",
			ErrTruncated, hdrStart, eofUnexpected(s.rdErr))
	default:
		// A full, well-formed header whose payload never arrived
		// (corrupt headers were already caught in the decode sweep).
		s.off += int64(left)
		s.err = fmt.Errorf("%w: record data at offset %d: %w",
			ErrTruncated, s.off, eofUnexpected(s.rdErr))
	}
}

// ScanBatch advances to the next batch of records, releasing b and
// reusing its Records slice. It returns false at end of stream or on
// error; Err distinguishes the two. After false, Offset reports where
// the stream ended or died.
func (s *BatchScanner) ScanBatch(b *RecordBatch) bool {
	return s.scanBatch(b, nil)
}

// ScanBatchKeep is ScanBatch with the caller's prefilter pushed below
// record materialization: each complete record's payload is offered to
// keep during the header sweep, and rejected records are skipped at the
// cost of the sweep alone — no Record struct, no timestamp conversion,
// no append. Frame numbering, offsets, and error classification are
// identical to an unfiltered scan over the same stream; kept records'
// absolute frame numbers land in b.Frames since a filtered batch is no
// longer contiguous. keep must not retain the payload slice — it
// aliases the block.
//
// Liveness: a call that sweeps complete records returns true even when
// keep rejected every one of them — the batch is empty but Offset and
// Frame have advanced, so a live consumer (the sentinel pipeline) can
// account for rejected traffic without waiting for the next relevant
// record. Callers must therefore tolerate len(b.Records) == 0.
func (s *BatchScanner) ScanBatchKeep(b *RecordBatch, keep func(payload []byte) bool) bool {
	return s.scanBatch(b, keep)
}

func (s *BatchScanner) scanBatch(b *RecordBatch, keep func([]byte) bool) bool {
	b.Release()
	b.Records = b.Records[:0]
	b.Frames = b.Frames[:0]
	b.First = s.frame + 1
	if s.err != nil {
		return false
	}
	frameStart := s.frame
	for {
		if s.rest >= 0 && s.pos == len(s.span) {
			// The joined record is consumed; go on in the block it ended in.
			s.span, s.pos, s.rest = s.cur.buf[:s.cur.start+s.cur.n], s.rest, -1
		}
		if s.started || s.header() {
			s.pos = s.decodeSpan(b, s.span, s.pos, keep)
			if len(b.Records) > 0 && s.cur != nil {
				s.cur.refs.Add(1)
				b.blk = s.cur
			}
			if s.err != nil {
				// Corrupt header: records decoded before it are still
				// delivered; the staged error surfaces on the next call.
				s.drop()
				return len(b.Records) > 0
			}
			if len(b.Records) > 0 || (keep != nil && s.frame > frameStart) {
				// Hand the batch out — possibly empty under keep, if the
				// sweep advanced past rejected records only; the partial
				// element (if any) stays in the span for the next call.
				return true
			}
		} else if s.err != nil {
			s.drop()
			return false
		}
		if s.rest >= 0 {
			continue // a joined element was consumed without a batch to hand out
		}
		if s.rdErr != nil {
			s.classifyEnd(len(s.span) - s.pos)
			s.drop()
			return false
		}
		s.next()
	}
}

// header consumes the 16-byte file header once the span holds it.
func (s *BatchScanner) header() bool {
	if len(s.span)-s.pos < 16 {
		return false
	}
	dl, err := parseFileHeader((*[16]byte)(s.span[s.pos : s.pos+16]))
	s.off += 16
	if err != nil {
		s.err = err
		return false
	}
	s.datalink = dl
	s.started = true
	s.pos += 16
	return true
}

// next moves the scan to the source's next block. The partial element
// left in the span is copied into the block's headroom and decoded
// there; one longer than the headroom is collected into a joined buffer
// from as many blocks as the element spans, each block released as it
// is used up.
func (s *BatchScanner) next() {
	tail := s.span[s.pos:]
	blk := s.fetch()
	if blk == nil {
		return // the span keeps the tail for classifyEnd
	}
	if len(tail) <= blk.start {
		at := blk.start - len(tail)
		copy(blk.buf[at:], tail)
		s.hold(blk)
		s.span, s.pos = blk.buf[:blk.start+blk.n], at
		return
	}
	joined := append(make([]byte, 0, s.elementLen(tail)), tail...)
	s.hold(nil)
	used := 0
	for {
		want := s.elementLen(joined)
		if len(joined) < want && used < blk.n {
			take := min(want-len(joined), blk.n-used)
			joined = append(joined, blk.buf[blk.start+used:blk.start+used+take]...)
			used += take
			continue
		}
		s.span, s.pos = joined, 0
		if len(joined) == want {
			s.cur, s.rest = blk, blk.start+used
			return
		}
		blk.release()
		if s.rdErr != nil {
			return // the stream ended inside the element
		}
		if blk = s.fetch(); blk == nil {
			return
		}
		used = 0
	}
}

// elementLen is the length of the element partial bytes p start: the
// file header, a record header until it is complete, then the whole
// record. A corrupt record header is complete on its own, for
// decodeSpan to reject.
func (s *BatchScanner) elementLen(p []byte) int {
	switch {
	case !s.started:
		return 16
	case len(p) < 24:
		return 24
	}
	orig, incl := binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:8])
	if incl > maxRecord || incl > orig {
		return 24
	}
	return 24 + int(incl)
}

// fetch takes the source's next block, latching its read error.
func (s *BatchScanner) fetch() *Block {
	blk := s.src.Next()
	if blk == nil {
		s.rdErr = errSourceClosed
		return nil
	}
	if blk.err != nil {
		s.rdErr = blk.err
	}
	return blk
}

// hold makes blk the current block, releasing the previous one.
func (s *BatchScanner) hold(blk *Block) {
	if s.cur != nil {
		s.cur.release()
	}
	s.cur = blk
}

// drop releases the current block at the end of the scan.
func (s *BatchScanner) drop() {
	s.hold(nil)
	s.span, s.pos, s.rest = nil, 0, -1
}

// Err returns the first error encountered, or nil if the stream ended
// cleanly at a record boundary (see BatchScanner for the error classes).
func (s *BatchScanner) Err() error {
	if s.err == io.EOF {
		return nil
	}
	return s.err
}

// Offset returns the byte offset reached in the stream: after a
// successful ScanBatch, the end of the batch's last record; after false,
// the position at which the stream ended or died (the exact death byte
// for truncation, the start of the offending header for framing errors).
func (s *BatchScanner) Offset() int64 { return s.off }

// Frame returns the 1-based frame number of the last record delivered.
func (s *BatchScanner) Frame() int { return s.frame }

// Datalink returns the stream's datalink type; valid after the first
// ScanBatch call.
func (s *BatchScanner) Datalink() uint32 { return s.datalink }

// Slab is an append-only arena for payloads that must outlive the batch
// (or scanner buffer) they were decoded into: Copy returns a stable
// copy carved from a large shared block, so retaining a million small
// payloads costs a few hundred block allocations instead of a million
// Clone calls. A Slab is not safe for concurrent use; the zero value is
// ready to go.
//
// Slab memory is reclaimed only when every copy carved from a block is
// unreachable — the right trade for "parse a capture, keep the
// records", the wrong one for retaining a handful of payloads from an
// unbounded stream (use Record.Clone there).
type Slab struct {
	block []byte
	chunk int
}

// defaultSlabChunk balances waste (a record never straddles blocks, so
// up to one maxRecord of tail waste per block) against allocation count.
const defaultSlabChunk = 256 << 10

// Copy returns a copy of p whose lifetime is independent of p's backing
// store. Copies of zero-length payloads share an empty non-nil slice.
func (s *Slab) Copy(p []byte) []byte {
	if len(p) == 0 {
		return []byte{}
	}
	if s.chunk == 0 {
		s.chunk = defaultSlabChunk
	}
	if len(p) > cap(s.block)-len(s.block) {
		size := s.chunk
		if len(p) > size {
			size = len(p)
		}
		s.block = make([]byte, 0, size)
	}
	start := len(s.block)
	s.block = append(s.block, p...)
	return s.block[start:len(s.block):len(s.block)]
}

// CloneInto returns a deep copy of the record with Data carved from the
// slab — the batch-era replacement for Clone when many records are
// retained at once.
func (r Record) CloneInto(s *Slab) Record {
	r.Data = s.Copy(r.Data)
	return r
}
