package sentinel

import (
	"errors"
	"io"
	"math/bits"
	"os"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// Event is one JSONL line on the daemon's event output. Every line
// carries Type and Stream; the remaining fields depend on the type:
//
//	stream-start    proto, label
//	finding         seq, frame, kind, peer, detail, capture_ts
//	stream-end      status, offset, records, bytes, findings[, error]
//	stream-rejected proto, label, error
//
// Finding events are emitted the moment the incremental detector
// produces them — mid-stream, not at EOF — and their seq/frame/kind
// match what a batch forensics.Analyze over the same records would
// report, in the same order (the live/batch parity contract).
type Event struct {
	Type   string `json:"type"`
	Stream uint64 `json:"stream"`
	Proto  string `json:"proto,omitempty"`
	Label  string `json:"label,omitempty"`
	// Session is the client-chosen resume identity (session protocol
	// streams only). Present on stream-start/stream-end and the
	// session-lifecycle events; findings stay session-free — the stream
	// id already keys them and the hot path stays lean.
	Session string `json:"session,omitempty"`
	// TS is the wall-clock emission time (RFC3339Nano, UTC), stamped
	// only when Config.Timestamps is set or a persistence store is
	// wired — the one-shot batch paths leave it off so their output
	// stays byte-deterministic across runs. Retention and time-window
	// queries key on this, not on stream offsets.
	TS string `json:"ts,omitempty"`

	// Finding fields.
	Seq       uint64 `json:"seq,omitempty"`
	Frame     int    `json:"frame,omitempty"`
	Kind      string `json:"kind,omitempty"`
	Peer      string `json:"peer,omitempty"`
	Detail    string `json:"detail,omitempty"`
	CaptureTS string `json:"capture_ts,omitempty"`

	// Stream-end fields.
	Status   string `json:"status,omitempty"`
	Offset   int64  `json:"offset,omitempty"`
	Records  int    `json:"records,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
	Findings uint64 `json:"findings,omitempty"`
	// EventsDropped counts this stream's events lost to the per-write
	// deadline before the end line was written: nonzero means the event
	// consumer stalled and the JSONL record is incomplete.
	EventsDropped uint64 `json:"events_dropped,omitempty"`
	Error         string `json:"error,omitempty"`
}

// Event types.
const (
	EventStreamStart    = "stream-start"
	EventFinding        = "finding"
	EventStreamEnd      = "stream-end"
	EventStreamRejected = "stream-rejected"
	// Session-lifecycle events. session-hello and session-ack are written
	// to the client connection, not the Output stream; the rest land on
	// Output like any other event.
	EventSessionHello   = "session-hello"
	EventSessionAck     = "session-ack"
	EventSessionParked  = "session-parked"
	EventSessionResumed = "session-resumed"
	EventSessionExpired = "session-expired"
	// EventCheckpoint reports a detector checkpoint made durable in the
	// store (emitted after the tsdb append + sync completes, so the line
	// on Output is a reliable kill-here marker for crash drills).
	EventCheckpoint = "checkpoint"
)

// Stream-end statuses: how a stream died. Operators branch on these to
// tell a phone log that was closed cleanly from a capture mangled in
// transit from a client that simply stopped sending.
const (
	// StatusClean: the stream ended on a record boundary — a complete log.
	StatusClean = "clean"
	// StatusTruncated: the stream died mid-record (io.ErrUnexpectedEOF);
	// Offset says where.
	StatusTruncated = "truncated"
	// StatusBadFraming: a record header's lengths are inconsistent
	// (snoop.ErrBadFraming); Offset points at the offending header.
	StatusBadFraming = "bad-framing"
	// StatusTimeout: the per-connection read deadline expired.
	StatusTimeout = "timeout"
	// StatusError: anything else (bad magic, transport failure, ...).
	StatusError = "error"
	// StatusAborted: the daemon shut down (or force-closed after the
	// drain grace) while the stream was live or parked; the stream's
	// detector state was checkpointed if a store is wired, so a restart
	// can resume it.
	StatusAborted = "aborted"
	// StatusPanic: the stream's pipeline panicked; Error carries the
	// recovered value and Offset the capture offset reached before the
	// panic. The stream is dead but the daemon and its other streams
	// keep running.
	StatusPanic = "panic"
)

// ErrAborted marks a stream torn down by daemon shutdown rather than by
// anything the transport or the capture did.
var ErrAborted = errors.New("sentinel: stream aborted by shutdown")

// ClassifyStreamError maps a snoop.BatchScanner error to a stream-end status.
func ClassifyStreamError(err error) string {
	switch {
	case err == nil:
		return StatusClean
	case errors.Is(err, snoop.ErrBadFraming):
		return StatusBadFraming
	case errors.Is(err, os.ErrDeadlineExceeded):
		return StatusTimeout
	case errors.Is(err, ErrAborted):
		return StatusAborted
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, errSessionCut):
		return StatusTruncated
	default:
		return StatusError
	}
}

// findingBurst is a run of one stream's drained findings that share an
// emission stamp: ts is the wall-clock instant in unix nanoseconds, 0
// when timestamps are off. The detector goroutine hands it to the shard
// writer and the persist goroutine as is and never touches the slice
// again, so both read it without copying. The writer renders the
// findings' JSONL lines with appendFinding; the persist goroutine
// stores them as binary records, which /query renders with the same
// appendFinding.
type findingBurst struct {
	stream uint64
	ts     int64
	evs    []forensics.Event
}

// appendStamp appends the RFC3339Nano UTC rendering of the emission
// stamp ts to b, or nothing when ts is 0 (timestamps off).
func appendStamp(b []byte, ts int64) []byte {
	if ts == 0 {
		return b
	}
	return time.Unix(0, ts).UTC().AppendFormat(b, time.RFC3339Nano)
}

// appendFinding appends the JSON object of one finding of the given
// stream to b: the bytes json.Marshal produces for the finding Event with
// Type, Stream, TS, Seq, Frame, Kind, Peer, Detail and CaptureTS set —
// the same field order, omitempty rules and escaping — without building
// that Event or its peer, detail and capture-time strings. The detail
// text is rendered by Finding.AppendDetail into a stack buffer and
// escaped from there. ts is the rendered emission stamp (appendStamp),
// empty when timestamps are off. The stamp, the peer and the capture
// time are written unescaped: RFC3339 in UTC and the colon-hex address
// use only characters JSON passes through verbatim.
// TestAppendFindingMatchesEventJSON pins the identity.
func appendFinding(b []byte, stream uint64, ts []byte, ev *forensics.Event) []byte {
	b = append(b, `{"type":"finding","stream":`...)
	b = strconv.AppendUint(b, stream, 10)
	if len(ts) > 0 {
		b = append(b, `,"ts":"`...)
		b = append(b, ts...)
		b = append(b, '"')
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
	}
	if ev.Frame != 0 {
		b = append(b, `,"frame":`...)
		b = strconv.AppendInt(b, int64(ev.Frame), 10)
	}
	if ev.Finding.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, ev.Finding.Kind)
	}
	b = append(b, `,"peer":"`...)
	b, _ = ev.Finding.Peer.AppendText(b)
	b = append(b, '"')
	var text [256]byte
	if detail := ev.Finding.AppendDetail(text[:0]); len(detail) > 0 {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, detail)
	}
	b = append(b, `,"capture_ts":"`...)
	b = ev.Time.UTC().AppendFormat(b, time.RFC3339Nano)
	return append(b, `"}`...)
}

const jsonHex = "0123456789abcdef"

// jsonSafe marks the ASCII bytes that pass through appendJSONString
// unescaped. A table lookup here keeps the escaper's hot loop — run on
// every event string the daemon emits — to one load and one branch per
// byte instead of a six-way comparison chain.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return
}()

// jsonWordCare is jsonSafe for eight bytes loaded little-endian: zero
// when every byte passes verbatim, otherwise a mask whose lowest set bit
// is the high bit of the first byte that does not (one at or above 0x80,
// below 0x20, or one of " \ < > &). Set bits above it may be spurious,
// because a subtraction borrows only out of a matching byte; the caller
// reads only the lowest.
func jsonWordCare(w uint64) uint64 {
	return (w | (w - 0x20*wordLSB) | hasZero(w^'"'*wordLSB) | hasZero(w^'\\'*wordLSB) |
		hasZero(w^'<'*wordLSB) | hasZero(w^'>'*wordLSB) | hasZero(w^'&'*wordLSB)) & wordMSB
}

// wordLSB and wordMSB repeat a byte's lowest and highest bit over a
// word; hasZero(v) & wordMSB flags v's zero bytes, exact up to the first.
const wordLSB, wordMSB = 0x0101010101010101, 0x8080808080808080

func hasZero(v uint64) uint64 { return (v - wordLSB) &^ v }

// appendJSONString appends s, a string or the bytes of one, as a JSON
// string literal using exactly encoding/json's escaping rules
// (HTML-escaping on, as json.Marshal defaults): quote, backslash, and
// control bytes are escaped (the JSON short forms where they exist,
// \u00xx otherwise), '<', '>', and '&' become \u003c, \u003e and
// \u0026, invalid UTF-8 bytes become \ufffd, and U+2028/U+2029 are
// escaped for JS embedding. Everything else is copied verbatim in bulk
// runs between escapes. The runs are scanned eight bytes at a time
// (jsonWordCare); the byte loop takes over at the first byte that may
// need escaping.
func appendJSONString[T string | []byte](b []byte, s T) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if i+8 <= len(s) {
			w := s[i : i+8]
			m := jsonWordCare(uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
				uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56)
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) >> 3
		}
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's bytes are converted: for a []byte s the
		// short string lives on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', jsonHex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
