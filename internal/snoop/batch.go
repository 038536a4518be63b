package snoop

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// BatchScanner is the btsnoop decoder. One large Read per pass deposits
// a block of the stream directly into the batch's buffer, and a single
// in-memory sweep decodes every complete record header in it, so
// steady-state cost is one syscall and one buffer sweep per ~64 KiB of
// capture rather than two reads per ~50-byte record. For captures
// already in memory, NewBatchScannerBytes skips even that one copy and
// decodes records aliasing the input.
//
//	sc := snoop.NewBatchScanner(r)
//	var b snoop.RecordBatch
//	for sc.ScanBatch(&b) {
//		for i := range b.Records { ... } // Data valid until the next ScanBatch on b
//	}
//	if err := sc.Err(); err != nil { ... }
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
// the chain. FuzzScanner pins stream, trickle and bytes modes to a
// record-at-a-time reference decoder on arbitrary input.
type BatchScanner struct {
	r          io.Reader
	all        []byte // bytes mode: the entire stream, decoded in place
	pos        int    // bytes mode: consumed index into all
	tail       []byte // stream mode: partial element carried between batches
	off        int64  // stream offset of the first unconsumed byte
	frame      int    // frames delivered so far
	err        error  // terminal state; io.EOF means clean end
	rdErr      error  // pending read error, surfaced once buffered bytes drain
	started    bool
	datalink   uint32
	smallRun   int // consecutive records <= shrinkTo, for the shrink valve
	batchBytes int
}

// RecordBatch is one batch of decoded records. Records[i].Data aliases
// the batch's internal buffer (or, in bytes mode, the input slice),
// which the owning BatchScanner refills on the next ScanBatch call with
// this batch — so a batch handed to another goroutine (the sentinel
// ring) stays valid until it is recycled, and a batch reused in a loop
// is valid until the next ScanBatch(&b). Payloads that must outlive the
// batch are copied, cheaply, via Slab.Copy rather than per-record Clone
// allocations.
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

	buf []byte // stream mode: backing store for every Records[i].Data
}

const (
	// defaultBatchBytes is the target block size per batch: large enough
	// that header decoding amortizes the syscall, small enough that
	// MaxStreams concurrent batches stay cheap (4 in-flight batches per
	// sentinel stream = 256 KiB).
	defaultBatchBytes = 64 << 10

	// maxBatchRecords bounds Records growth per batch so a bytes-mode
	// scan over a million-record capture recycles one modest struct
	// slice instead of materializing them all at once.
	maxBatchRecords = 4096

	// Buffer-shrink valve: one giant record (up to maxRecord, 1 MiB)
	// grows a stream-mode batch buffer, and without a release valve the
	// scanner would pin that high-water allocation for the rest of the
	// stream — per connection in blapd, max-record-sized ballast per idle
	// stream. After shrinkAfter consecutive records of at most shrinkTo
	// bytes, a buffer beyond twice the block size is dropped for a fresh
	// one. The run-length condition keeps a genuinely mixed stream
	// (periodic big vendor events) from thrashing allocations.
	shrinkTo    = 4 << 10
	shrinkAfter = 64
)

// NewBatchScanner returns a BatchScanner over a btsnoop stream with the
// default block size. It never wraps r in a bufio.Reader — the batch
// buffer is the read buffer.
func NewBatchScanner(r io.Reader) *BatchScanner {
	return NewBatchScannerSize(r, defaultBatchBytes)
}

// NewBatchScannerSize is NewBatchScanner with an explicit target block
// size (bytes read per syscall and decoded per sweep). Values below 4
// KiB are raised to 4 KiB. Batch analysis of on-disk captures profits
// from larger blocks (256 KiB); live sockets from the default.
func NewBatchScannerSize(r io.Reader, blockBytes int) *BatchScanner {
	if blockBytes < 4<<10 {
		blockBytes = 4 << 10
	}
	return &BatchScanner{r: r, batchBytes: blockBytes}
}

// ResumeBatchScanner returns a BatchScanner that continues a previously
// interrupted scan: r must deliver the capture's bytes starting at
// absolute offset off (a record boundary reached by the earlier scan),
// frame is the 1-based frame count already delivered, and datalink is
// the file header's datalink type (the header was consumed by the
// earlier scan and is not expected again). Offsets, frame numbers, and
// error classification continue exactly as if one scanner had read the
// whole stream — the resume contract blapd's session checkpoints rely
// on.
func ResumeBatchScanner(r io.Reader, blockBytes int, off int64, frame int, datalink uint32) *BatchScanner {
	s := NewBatchScannerSize(r, blockBytes)
	s.started = true
	s.off = off
	s.frame = frame
	s.datalink = datalink
	return s
}

// NewBatchScannerBytes returns a BatchScanner over an in-memory capture.
// No bytes are copied: batch records alias data directly, so the caller
// must not mutate data while batches are in use. Semantics are otherwise
// identical to the streaming scanner.
func NewBatchScannerBytes(data []byte) *BatchScanner {
	if data == nil {
		data = []byte{} // non-nil sentinel: all==nil selects stream mode
	}
	return &BatchScanner{all: data, rdErr: io.EOF, batchBytes: defaultBatchBytes}
}

// fill appends one Read's worth of bytes to buf, remembering a read
// error for later classification (bytes delivered alongside an error are
// still consumed first).
func (s *BatchScanner) fill(buf []byte) []byte {
	if len(buf) == cap(buf) {
		// The pending element outgrows the block: grow geometrically,
		// bounded by the maxRecord cap enforced in decodeSpan.
		grown := make([]byte, len(buf), 2*cap(buf))
		copy(grown, buf)
		buf = grown
	}
	n, err := s.r.Read(buf[len(buf):cap(buf)])
	if err != nil {
		s.rdErr = err
	}
	return buf[: len(buf)+n : cap(buf)]
}

// decodeSpan is the hot loop shared by both modes: it decodes every
// complete record in buf[pos:] into b (up to maxBatchRecords),
// advancing the scanner's offset/frame/shrink counters, and returns the
// new consumed position. A corrupt header stages s.err — positioned at
// the header's start, which is left unconsumed — and stops the sweep.
func (s *BatchScanner) decodeSpan(b *RecordBatch, buf []byte, pos int, keep func([]byte) bool) int {
	n := len(buf)
	off := s.off
	frame := s.frame
	smallRun := s.smallRun
	recs := b.Records
	frames := b.Frames
	for n-pos >= 24 && len(recs) < maxBatchRecords {
		h := buf[pos : pos+24]
		orig := binary.BigEndian.Uint32(h)
		incl := binary.BigEndian.Uint32(h[4:8])
		if incl > maxRecord || incl > orig {
			s.off, s.frame, s.smallRun = off, frame, smallRun
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
		if int(incl) <= shrinkTo {
			smallRun++
		} else {
			smallRun = 0
		}
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
	s.off, s.frame, s.smallRun = off, frame, smallRun
	b.Records, b.Frames = recs, frames
	return pos
}

// classifyEnd converts "the stream is over with `left` undecodable bytes
// buffered" into the terminal state: clean EOF at a boundary, mid-header
// or mid-payload truncation with Offset advanced to the death byte, or
// the underlying transport error.
func (s *BatchScanner) classifyEnd(left int) {
	switch {
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

// ScanBatch advances to the next batch of records, reusing b's buffer
// and Records slice. It returns false at end of stream or on error; Err
// distinguishes the two. After false, Offset reports where the stream
// ended or died.
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
// aliases the scan buffer.
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
	b.Records = b.Records[:0]
	b.Frames = b.Frames[:0]
	b.First = s.frame + 1
	if s.err != nil {
		return false
	}
	if s.all != nil {
		return s.scanBytes(b, keep)
	}
	// Shrink valve (see shrinkAfter).
	if s.smallRun >= shrinkAfter && cap(b.buf) > 2*s.batchBytes {
		b.buf = nil
		s.smallRun = 0
	}
	if cap(b.buf) < s.batchBytes {
		b.buf = make([]byte, 0, s.batchBytes)
	}
	buf := append(b.buf[:0], s.tail...)
	s.tail = s.tail[:0]
	pos := 0

	if !s.started {
		for len(buf) < 16 && s.rdErr == nil {
			buf = s.fill(buf)
		}
		if len(buf) < 16 {
			s.off += int64(len(buf))
			s.err = fmt.Errorf("%w: file header: %w", ErrTruncated, eofUnexpected(s.rdErr))
			b.buf = buf
			return false
		}
		dl, err := parseFileHeader((*[16]byte)(buf[:16]))
		s.off += 16
		if err != nil {
			s.err = err
			b.buf = buf
			return false
		}
		s.datalink = dl
		s.started = true
		pos = 16
	}

	frameStart := s.frame
	for {
		pos = s.decodeSpan(b, buf, pos, keep)
		if s.err != nil {
			// Corrupt header: records decoded before it are still
			// delivered; the staged error surfaces on the next call.
			b.buf = buf
			return len(b.Records) > 0
		}

		if len(b.Records) > 0 || (keep != nil && s.frame > frameStart) {
			// Hand the batch out — possibly empty under keep, if the
			// sweep advanced past rejected records only; the partial
			// element (if any) carries over to the next batch's buffer.
			s.tail = append(s.tail[:0], buf[pos:]...)
			b.buf = buf
			return true
		}

		if s.rdErr == nil {
			// No complete record buffered and bytes may still come:
			// compact the partial element to the front and read more.
			if pos > 0 {
				n := copy(buf, buf[pos:])
				buf = buf[:n]
				pos = 0
			}
			buf = s.fill(buf)
			continue
		}

		b.buf = buf
		s.classifyEnd(len(buf) - pos)
		return false
	}
}

// scanBytes is the zero-copy in-memory mode: records are decoded
// directly over the input slice, one maxBatchRecords-sized batch per
// call, with no buffer fills or tail carries.
func (s *BatchScanner) scanBytes(b *RecordBatch, keep func([]byte) bool) bool {
	if !s.started {
		if len(s.all) < 16 {
			s.off = int64(len(s.all))
			s.err = fmt.Errorf("%w: file header: %w", ErrTruncated, io.ErrUnexpectedEOF)
			return false
		}
		dl, err := parseFileHeader((*[16]byte)(s.all[:16]))
		s.off = 16
		if err != nil {
			s.err = err
			return false
		}
		s.datalink = dl
		s.started = true
		s.pos = 16
	}
	frameStart := s.frame
	s.pos = s.decodeSpan(b, s.all, s.pos, keep)
	if s.err != nil {
		return len(b.Records) > 0
	}
	if len(b.Records) > 0 || (keep != nil && s.frame > frameStart) {
		return true
	}
	s.classifyEnd(len(s.all) - s.pos)
	return false
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
