// Package snoop implements the RFC 1761 packet capture format as profiled
// for Bluetooth HCI ("btsnoop"), the on-disk format of Android's
// "Bluetooth HCI snoop log" and BlueZ's hcidump. It provides a writer, a
// block-scanning reader, an HCI-transport tap that records live traffic
// (the HCI dump module the paper's link key extraction attack exploits),
// a link-key-filtering variant of that tap (the paper's §VII-A
// mitigation), and an hcidump-style text renderer used to regenerate the
// paper's Fig. 3 and Fig. 12 traces.
package snoop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// File format constants.
const (
	// magic is the 8-byte identification pattern "btsnoop\0".
	magic = "btsnoop\x00"

	// Version is the only defined format version.
	Version = 1

	// DatalinkH1 identifies un-encapsulated HCI (H1) records.
	DatalinkH1 = 1001

	// DatalinkH4 identifies HCI UART (H4) encapsulation: each record is an
	// H4 packet beginning with the packet-type indicator octet.
	DatalinkH4 = 1002

	// DatalinkBCSP identifies BCSP-encapsulated records.
	DatalinkBCSP = 1003

	// DatalinkH5 identifies 3-wire UART (H5) encapsulated records.
	DatalinkH5 = 1004

	// btsnoopEpochDelta is the number of microseconds between the btsnoop
	// epoch (0000-01-01 00:00:00) and the Unix epoch, per the Android and
	// Wireshark implementations.
	btsnoopEpochDelta = int64(0x00dcddb30f2f8000)
)

// Record flags (RFC 1761 as profiled for btsnoop).
const (
	// FlagDirectionReceived is set on controller-to-host packets.
	FlagDirectionReceived uint32 = 0x01
	// FlagCommandEvent is set on command and event packets (as opposed to
	// ACL/SCO data).
	FlagCommandEvent uint32 = 0x02
)

// Record is one captured packet.
type Record struct {
	// OriginalLength is the untruncated packet length.
	OriginalLength uint32
	// Flags encodes direction and command/event classification.
	Flags uint32
	// CumulativeDrops counts packets lost before this record.
	CumulativeDrops uint32
	// Timestamp is the capture time.
	Timestamp time.Time
	// Data is the captured (possibly truncated) H4 packet bytes.
	Data []byte
}

// Received reports whether the packet travelled controller-to-host.
func (r Record) Received() bool { return r.Flags&FlagDirectionReceived != 0 }

// Truncated reports whether payload bytes were omitted from Data, e.g. by
// the link-key-filtering mitigation.
func (r Record) Truncated() bool { return int(r.OriginalLength) != len(r.Data) }

// Format errors.
var (
	ErrBadMagic    = errors.New("snoop: bad identification pattern")
	ErrBadVersion  = errors.New("snoop: unsupported version")
	ErrBadDatalink = errors.New("snoop: unsupported datalink type")
	ErrTruncated   = errors.New("snoop: truncated file")
	ErrBadFraming  = errors.New("snoop: included length exceeds original length")
)

// Writer emits a btsnoop stream.
type Writer struct {
	w        io.Writer
	datalink uint32
	started  bool
}

// NewWriter returns a Writer that emits the file header on the first
// record (or on Flush). The datalink defaults to DatalinkH4; use
// SetDatalink before the first record to emit a different one (Rewrite
// does this to preserve the source stream's datalink).
func NewWriter(w io.Writer) *Writer { return &Writer{w: w, datalink: DatalinkH4} }

// SetDatalink sets the datalink type stamped into the file header. It
// has no effect once the header has been written.
func (w *Writer) SetDatalink(datalink uint32) {
	if !w.started {
		w.datalink = datalink
	}
}

func (w *Writer) header() error {
	if w.started {
		return nil
	}
	w.started = true
	var hdr [16]byte
	copy(hdr[:8], magic)
	binary.BigEndian.PutUint32(hdr[8:12], Version)
	binary.BigEndian.PutUint32(hdr[12:16], w.datalink)
	_, err := w.w.Write(hdr[:])
	return err
}

// WriteRecord appends one record.
func (w *Writer) WriteRecord(r Record) error {
	if err := w.header(); err != nil {
		return fmt.Errorf("snoop: writing header: %w", err)
	}
	orig := r.OriginalLength
	if orig == 0 {
		// An unset OriginalLength means "nothing was truncated": default
		// to the captured length instead of silently writing a record
		// that every reader would treat as truncated (and that the
		// framing validation below would reject on read-back).
		orig = uint32(len(r.Data))
	}
	var hdr [24]byte
	binary.BigEndian.PutUint32(hdr[0:4], orig)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(r.Data)))
	binary.BigEndian.PutUint32(hdr[8:12], r.Flags)
	binary.BigEndian.PutUint32(hdr[12:16], r.CumulativeDrops)
	ts := r.Timestamp.UnixMicro() + btsnoopEpochDelta
	binary.BigEndian.PutUint64(hdr[16:24], uint64(ts))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("snoop: writing record header: %w", err)
	}
	if _, err := w.w.Write(r.Data); err != nil {
		return fmt.Errorf("snoop: writing record data: %w", err)
	}
	return nil
}

// Flush forces the file header out even if no records were written.
func (w *Writer) Flush() error { return w.header() }

// parseFileHeader validates a fully buffered 16-byte file header and
// returns the datalink type. All datalink types btsnoop defines are
// accepted (H1/H4/BCSP/H5 — Rewrite must round-trip any of them);
// anything else is ErrBadDatalink.
func parseFileHeader(hdr *[16]byte) (uint32, error) {
	if string(hdr[:8]) != magic {
		return 0, ErrBadMagic
	}
	if v := binary.BigEndian.Uint32(hdr[8:12]); v != Version {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	datalink := binary.BigEndian.Uint32(hdr[12:16])
	switch datalink {
	case DatalinkH1, DatalinkH4, DatalinkBCSP, DatalinkH5:
		return datalink, nil
	}
	return 0, fmt.Errorf("%w: %d", ErrBadDatalink, datalink)
}

// maxRecord bounds a single record payload; no real H4 packet comes
// close, and the cap keeps hostile length fields from forcing huge
// allocations.
const maxRecord = 1 << 20

// framingError explains why a record header's length fields were
// rejected: a payload beyond maxRecord, or more bytes included than the
// packet originally had.
func framingError(orig, incl uint32) error {
	if incl > maxRecord {
		return fmt.Errorf("snoop: implausible record length %d", incl)
	}
	return fmt.Errorf("%w: included %d > original %d", ErrBadFraming, incl, orig)
}

// eofUnexpected maps any flavor of end-of-stream to io.ErrUnexpectedEOF:
// once part of an element has been consumed, running out of bytes is
// mid-record truncation no matter which sentinel the reader returned.
// Non-EOF errors (real I/O failures, deadline expiries) pass through so
// errors.Is can still see them.
func eofUnexpected(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ReadAll parses a complete btsnoop file from a byte slice. Payloads
// are carved from a Slab rather than allocated per record, so
// materializing a million-record capture costs hundreds of allocations,
// not millions.
func ReadAll(data []byte) ([]Record, error) {
	sc := NewBatchScannerBytes(data)
	var (
		out  []Record
		slab Slab
		b    RecordBatch
	)
	for sc.ScanBatch(&b) {
		for _, rec := range b.Records {
			out = append(out, rec.CloneInto(&slab))
		}
	}
	return out, sc.Err()
}

// Clone returns a deep copy of the record whose Data no longer aliases
// any scanner buffer.
func (r Record) Clone() Record {
	r.Data = append([]byte(nil), r.Data...)
	return r
}

// Rewrite is the Writer-side mirror of BatchScanner: it streams records
// from src through filter into dst one block at a time, so a
// multi-gigabyte capture can be filtered (e.g. with LinkKeyFilter) in
// constant memory. A nil filter copies the capture verbatim. Filters
// must not retain the record's Data across calls; the stock filters copy
// before rewriting. It returns how many records were kept and dropped.
// The source stream's datalink type is propagated to the output header,
// so a non-H4 capture round-trips instead of being silently restamped
// as H4.
func Rewrite(dst io.Writer, src io.Reader, filter func(Record) (Record, bool)) (kept, dropped int, err error) {
	sc := NewBatchScanner(src)
	w := NewWriter(dst)
	var b RecordBatch
	for sc.ScanBatch(&b) {
		// The datalink is known once the first batch has consumed the
		// file header; latch it before the Writer emits its own header.
		w.SetDatalink(sc.Datalink())
		for _, rec := range b.Records {
			if filter != nil {
				out, ok := filter(rec)
				if !ok {
					dropped++
					continue
				}
				rec = out
			}
			if err := w.WriteRecord(rec); err != nil {
				return kept, dropped, err
			}
			kept++
		}
	}
	if err := sc.Err(); err != nil {
		return kept, dropped, err
	}
	// A record-free source still read its file header; preserve its
	// datalink on the header-only output too.
	w.SetDatalink(sc.Datalink())
	return kept, dropped, w.Flush()
}
