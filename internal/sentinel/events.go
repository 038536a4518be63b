package sentinel

import (
	"errors"
	"io"
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
	case errors.Is(err, io.ErrUnexpectedEOF):
		return StatusTruncated
	default:
		return StatusError
	}
}

// findingEvent renders one detector event for a stream.
func findingEvent(id uint64, ev forensics.Event) Event {
	return Event{
		Type:      EventFinding,
		Stream:    id,
		Seq:       ev.Seq,
		Frame:     ev.Frame,
		Kind:      ev.Finding.Kind,
		Peer:      ev.Finding.Peer.String(),
		Detail:    ev.Finding.Detail,
		CaptureTS: ev.Time.UTC().Format(time.RFC3339Nano),
	}
}

// appendJSON appends the event's JSON object to b and returns the
// extended slice. The output is byte-identical to encoding/json's
// rendering of the same value — field order, omitempty behavior, and
// string escaping included — so shard writers can encode findings into
// a reused buffer without the per-event allocations of json.Marshal
// while every consumer of the JSONL stream sees the format PR 3
// shipped. TestAppendJSONMatchesEncodingJSON pins the identity for
// every event type; keep this encoder and the Event struct in lockstep.
func (ev *Event) appendJSON(b []byte) []byte {
	b = append(b, `{"type":`...)
	b = appendJSONString(b, ev.Type)
	b = append(b, `,"stream":`...)
	b = strconv.AppendUint(b, ev.Stream, 10)
	if ev.Proto != "" {
		b = append(b, `,"proto":`...)
		b = appendJSONString(b, ev.Proto)
	}
	if ev.Label != "" {
		b = append(b, `,"label":`...)
		b = appendJSONString(b, ev.Label)
	}
	if ev.Session != "" {
		b = append(b, `,"session":`...)
		b = appendJSONString(b, ev.Session)
	}
	if ev.TS != "" {
		b = append(b, `,"ts":`...)
		b = appendJSONString(b, ev.TS)
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendUint(b, ev.Seq, 10)
	}
	if ev.Frame != 0 {
		b = append(b, `,"frame":`...)
		b = strconv.AppendInt(b, int64(ev.Frame), 10)
	}
	if ev.Kind != "" {
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, ev.Kind)
	}
	if ev.Peer != "" {
		b = append(b, `,"peer":`...)
		b = appendJSONString(b, ev.Peer)
	}
	if ev.Detail != "" {
		b = append(b, `,"detail":`...)
		b = appendJSONString(b, ev.Detail)
	}
	if ev.CaptureTS != "" {
		b = append(b, `,"capture_ts":`...)
		b = appendJSONString(b, ev.CaptureTS)
	}
	if ev.Status != "" {
		b = append(b, `,"status":`...)
		b = appendJSONString(b, ev.Status)
	}
	if ev.Offset != 0 {
		b = append(b, `,"offset":`...)
		b = strconv.AppendInt(b, ev.Offset, 10)
	}
	if ev.Records != 0 {
		b = append(b, `,"records":`...)
		b = strconv.AppendInt(b, int64(ev.Records), 10)
	}
	if ev.Bytes != 0 {
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, ev.Bytes, 10)
	}
	if ev.Findings != 0 {
		b = append(b, `,"findings":`...)
		b = strconv.AppendUint(b, ev.Findings, 10)
	}
	if ev.EventsDropped != 0 {
		b = append(b, `,"events_dropped":`...)
		b = strconv.AppendUint(b, ev.EventsDropped, 10)
	}
	if ev.Error != "" {
		b = append(b, `,"error":`...)
		b = appendJSONString(b, ev.Error)
	}
	return append(b, '}')
}

const jsonHex = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal using exactly
// encoding/json's escaping rules (HTML-escaping on, as json.Marshal
// defaults): quote, backslash, and control bytes are escaped (the JSON
// short forms where they exist, \u00xx otherwise), '<', '>', and '&'
// become </>/&, invalid UTF-8 bytes become �, and
// U+2028/U+2029 are escaped for JS embedding. Everything else is
// copied verbatim in bulk runs between escapes.
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

func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
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
		r, size := utf8.DecodeRuneInString(s[i:])
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
