package forensics

import (
	"time"

	"repro/internal/snoop"
)

// Event is one live finding: the Finding itself plus the stream metadata
// an online consumer needs — a monotonic 1-based sequence number and the
// capture position/timestamp of the record that completed it.
type Event struct {
	Seq     uint64
	Frame   int
	Time    time.Time
	Finding Finding
}

// Detector is the incremental form of the analyzer: push snoop.Records
// as they arrive (from a socket, a growing file, or a slice) and drain
// findings the moment the session reducer produces them. Analyze,
// AnalyzeBatch and AnalyzeBytes are thin wrappers over a Detector, so a
// live path that pushes the same records in the same order emits
// byte-identical findings to a batch run — detection parity is
// structural, not tested into existence.
//
// Pushing allocates nothing per record or per connection: kept records
// decode in place, the reducer's lookup state is two integer-keyed
// tables, and sessions are carved from chunks (see sessionState). What
// remains is one event slice per Drain burst and one chunk per 64
// sessions.
//
// A Detector is not safe for concurrent use; the daemon runs one per
// connection.
type Detector struct {
	st      *sessionState
	pending []Event
	seq     uint64
	frames  int
	// snapCap remembers the last SnapshotState size so periodic
	// checkpoints serialize into one right-sized allocation instead of
	// growing a 512-byte buffer through a dozen realloc copies.
	snapCap int
	// burstCap is the capacity the next pending burst starts with, sized
	// by Drain from the burst it last handed out.
	burstCap int
}

// NewDetector returns an empty Detector that accumulates the full batch
// Report.
func NewDetector() *Detector {
	d := &Detector{}
	d.install(newSessionState())
	return d
}

// NewLiveDetector returns an empty Detector in live mode. Push, PushKept,
// Drain and the checkpoint methods behave as on NewDetector, and the
// events are identical, but the batch report is not kept (see Finish),
// so memory stays bounded by the live set over an unbounded stream.
// RestoreState keeps the mode.
func NewLiveDetector() *Detector {
	d := NewDetector()
	d.st.live = true
	return d
}

// install binds st as the detector's live reducer state and hooks its
// finding emission into the detector's pending event queue. NewDetector
// and RestoreState both go through here so a restored detector emits
// events exactly like a fresh one.
func (d *Detector) install(st *sessionState) {
	d.st = st
	st.onFinding = func(f Finding) {
		d.seq++
		if d.pending == nil {
			d.pending = make([]Event, 0, max(d.burstCap, 4))
		}
		d.pending = append(d.pending, Event{
			Seq: d.seq, Frame: d.st.frame, Time: d.st.ts, Finding: f,
		})
	}
}

// Push folds one capture record into the detector. Frames are numbered
// 1..n in push order, matching how Analyze numbers a record slice. The
// record's Data may alias a reused scanner buffer: decoding copies every
// field it keeps, so nothing of rec is retained.
func (d *Detector) Push(rec snoop.Record) {
	d.frames++
	var m hciMsg
	if m.decode(rec.Data) {
		d.st.apply(d.frames, rec.Timestamp, &m)
	}
}

// PushKept folds a batch of records that already passed the
// RelevantRecord prefilter — the output of snoop.ScanBatchKeep, where
// frames[i] is the absolute 1-based capture frame of recs[i]. Findings
// are bit-identical to Push over the full stream, because on either
// path only relevant records ever reach the reducer and they arrive
// with the same frame numbers; the difference is that rejected records
// were never materialized at all. Note Frames then reports the last
// relevant frame, not the capture total — callers that account for
// every record (the sentinel pipeline, the eval scans) read the
// scanner's Frame instead.
func (d *Detector) PushKept(frames []int, recs []snoop.Record) {
	var m hciMsg // decoded in place, reused for the whole batch
	for i := range recs {
		rec := &recs[i]
		if !m.decode(rec.Data) {
			continue
		}
		if frames[i] > d.frames {
			d.frames = frames[i]
		}
		d.st.apply(frames[i], rec.Timestamp, &m)
	}
}

// Drain returns the events produced since the previous Drain call, in
// emission order, or nil when there are none. The returned slice is
// owned by the caller, and its findings carry their structured fields
// with Detail empty (see Finding). The next burst's slice is allocated
// at the first finding after the Drain, sized from this burst, so a
// steady stream of bursts costs one allocation per burst instead of a
// regrowth from zero.
func (d *Detector) Drain() []Event {
	if len(d.pending) == 0 {
		return nil
	}
	ev := d.pending
	d.pending = nil
	d.burstCap = len(ev) + len(ev)/8
	return ev
}

// Frames returns the frame number of the last record pushed: after Push,
// how many records have been pushed; after PushKept, the last relevant
// frame.
func (d *Detector) Frames() int { return d.frames }

// Findings returns how many findings have been emitted so far (drained
// or not).
func (d *Detector) Findings() uint64 { return d.seq }

// Finish returns the accumulated batch report. The detector may keep
// receiving pushes afterwards (the report is live state), but callers
// that want a stable snapshot should stop pushing first.
//
// A live detector has no batch report: Finish returns empty Exposures
// and Findings, and Sessions holds, in report order, the sessions a
// future record can still reach plus disconnected ones not yet
// compacted away — never more than twice the larger count of table
// entries that reference a session, plus 64.
func (d *Detector) Finish() *Report { return d.st.finish() }
