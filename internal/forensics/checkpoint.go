package forensics

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/bt"
	"repro/internal/hci"
)

// Detector checkpointing: SnapshotState serializes the full incremental
// state of a Detector — the session reducer's report, its lookup tables,
// and the detector's frame/sequence counters — into a versioned,
// deterministic byte string, and RestoreState rebuilds an identical
// Detector from it. "Deterministic" is a contract, not an accident:
// snapshotting the same state twice yields identical bytes (maps are
// serialized in sorted key order, times as UTC wall values), so a
// persisted checkpoint can be byte-compared, deduplicated, and replayed.
// The round-trip is exact: a detector restored from a checkpoint taken
// after frame N emits, for every subsequent record, the same findings
// (same seq, frame, kind, peer, detail) an uninterrupted detector would
// have — which is what lets blapd park a stream across a crash and keep
// its findings byte-identical to an unbroken run.
//
// Version policy: the first byte is the format version. Decoders reject
// versions they do not know; encoders always write the current version.
// Any change to the field layout — even adding a field — bumps the
// version, because checkpoints outlive the process that wrote them.

// CheckpointVersion is the current SnapshotState format version.
// Version 2 added the silent-repair session flags and the per-peer
// last-key / last-key-type baselines of the related-attack rules.
const CheckpointVersion = 2

// SnapshotState serializes the detector's complete state. The detector
// must be drained first (Drain); snapshotting with undrained pending
// events is an error, because those events exist only in memory and a
// checkpoint that silently dropped them would violate the exactly-once
// replay contract.
func (d *Detector) SnapshotState() ([]byte, error) {
	return d.snapshot(false)
}

// SnapshotLiveState serializes only the state future detection reads:
// counters, lookup tables, and the sessions those tables still reference.
// The accumulated report — exposures, findings, disconnected sessions —
// is omitted, which is what keeps periodic checkpointing off the hot
// path: the report grows without bound over a long capture while the
// live set stays proportional to concurrent connections, so a live
// snapshot is typically kilobytes where the full one is megabytes.
//
// A detector restored from a live snapshot emits, for every subsequent
// record, findings byte-identical (same seq, frame, kind, peer, detail)
// to an uninterrupted detector — the reducer never reads the
// accumulated report back. What it does NOT preserve is Finish(): the
// restored report starts from the live sessions only. blapd checkpoints
// with this (its consumers read the event stream, which is already
// persisted finding-by-finding); hcidump -checkpoint keeps full
// snapshots because it prints the batch report.
//
// A live detector (NewLiveDetector) writes the same bytes a full one
// writes at the same point, and at O(live set) cost, since its session
// list is already trimmed to about the live set.
//
// The bytes are a valid checkpoint of the current CheckpointVersion —
// RestoreState accepts either kind; the difference is policy, not
// format.
func (d *Detector) SnapshotLiveState() ([]byte, error) {
	return d.snapshot(true)
}

func (d *Detector) snapshot(live bool) ([]byte, error) {
	if len(d.pending) != 0 {
		return nil, fmt.Errorf("forensics: snapshot with %d undrained events (call Drain first)", len(d.pending))
	}
	st := d.st
	sessions := st.rep.Sessions
	if live {
		// Keep only sessions a future record can still reach, preserving
		// report order so identical states snapshot to identical bytes.
		keep := st.liveSessions()
		sessions = make([]*Session, 0, len(keep))
		for _, s := range st.rep.Sessions {
			if keep[s] {
				sessions = append(sessions, s)
			}
		}
	}
	idx := make(map[*Session]int, len(sessions))
	for i, s := range sessions {
		idx[s] = i
	}

	cap := d.snapCap + d.snapCap/8
	if cap < 512 {
		cap = 512
	}
	b := make([]byte, 0, cap)
	b = append(b, CheckpointVersion)
	b = binary.LittleEndian.AppendUint64(b, d.seq)
	b = appendCkpInt(b, int64(d.frames))
	b = appendCkpInt(b, int64(st.frame))
	b = appendCkpTime(b, st.ts)

	b = binary.LittleEndian.AppendUint32(b, uint32(len(sessions)))
	for _, s := range sessions {
		b = binary.LittleEndian.AppendUint16(b, uint16(s.Handle))
		b = append(b, s.Peer[:]...)
		b = appendCkpBool(b, s.Incoming)
		b = appendCkpBool(b, s.LocalPairingInitiation)
		b = append(b, byte(s.PeerIOCap))
		b = appendCkpBool(b, s.HavePeerIOCap)
		b = appendCkpBool(b, s.PairingCompleted)
		b = append(b, byte(s.PairingStatus))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.AuthOutcomes)))
		for _, o := range s.AuthOutcomes {
			b = append(b, byte(o))
		}
		b = append(b, byte(s.DisconnectReason))
		b = appendCkpBool(b, s.Disconnected)
		b = appendCkpTime(b, s.ConnectedAt)
		b = appendCkpTime(b, s.EndsAt)
		b = appendCkpBool(b, s.flaggedPageBlocking)
		b = appendCkpBool(b, s.suppliedStoredKey)
		b = appendCkpBool(b, s.flaggedSilentRepair)
	}

	exposures, findings := st.rep.Exposures, st.rep.Findings
	if live {
		exposures, findings = nil, nil
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(exposures)))
	for _, e := range exposures {
		b = appendCkpInt(b, int64(e.Frame))
		b = appendCkpString(b, e.Source)
		b = append(b, e.Peer[:]...)
		b = append(b, e.Key[:]...)
	}

	b = binary.LittleEndian.AppendUint32(b, uint32(len(findings)))
	for _, f := range findings {
		b = appendCkpString(b, f.Kind)
		b = appendCkpInt(b, int64(f.Frame))
		b = append(b, f.Peer[:]...)
		b = appendCkpString(b, f.Detail)
		si := -1
		if f.Session != nil {
			i, ok := idx[f.Session]
			if !ok {
				return nil, fmt.Errorf("forensics: finding references a session outside the report")
			}
			si = i
		}
		b = appendCkpInt(b, int64(si))
	}

	// The two tables, serialized as the six sorted sections of v2: handle
	// sessions, peer sessions, pending accepts, pending authentications,
	// and the two key baselines. Keys are written in ascending order, so
	// identical states produce identical bytes regardless of map iteration
	// order; peerKey makes numeric order the address byte order.
	handles := make([]uint32, 0, len(st.handles))
	for h := range st.handles {
		handles = append(handles, h)
	}
	slices.Sort(handles)
	peers := make([]uint64, 0, len(st.peers))
	for p := range st.peers {
		peers = append(peers, p)
	}
	slices.Sort(peers)

	at, n := len(b), uint32(0)
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, h := range handles {
		if s := st.handles[h].session; s != nil {
			i, ok := idx[s]
			if !ok {
				return nil, fmt.Errorf("forensics: handle table references a session outside the report")
			}
			b = binary.LittleEndian.AppendUint16(b, uint16(h))
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)

	at, n = len(b), 0
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, k := range peers {
		if s := st.peers[k].session; s != nil {
			i, ok := idx[s]
			if !ok {
				return nil, fmt.Errorf("forensics: peer table references a session outside the report")
			}
			b = appendPeer(b, k)
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)

	at, n = len(b), 0
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, k := range peers {
		if st.peers[k].pendingIncoming {
			b = appendPeer(b, k)
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)

	at, n = len(b), 0
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, h := range handles {
		if st.handles[h].authPending {
			b = binary.LittleEndian.AppendUint16(b, uint16(h))
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)

	// Per-peer key baselines. These are live state — a future notification
	// compares against them — so even a live snapshot keeps every entry.
	at, n = len(b), 0
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, k := range peers {
		if p := st.peers[k]; p.haveKey {
			b = appendPeer(b, k)
			b = append(b, p.lastKey[:]...)
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)

	at, n = len(b), 0
	b = binary.LittleEndian.AppendUint32(b, 0)
	for _, k := range peers {
		if p := st.peers[k]; p.haveKeyType {
			b = appendPeer(b, k)
			b = append(b, byte(p.lastKeyType))
			n++
		}
	}
	binary.LittleEndian.PutUint32(b[at:], n)
	d.snapCap = len(b)
	return b, nil
}

// RestoreState replaces the detector's state with the one a checkpoint
// captured. The detector behaves exactly as the snapshotted one would:
// frame numbering continues from the checkpoint, finding sequence
// numbers continue from the checkpoint, and the report carries every
// session, exposure, and finding accumulated before it. A live detector
// stays live: it drops the checkpoint's exposures and findings and trims
// its sessions as it would have trimmed them itself.
//
// Only the canonical encoding SnapshotState writes is accepted — bools
// are 0 or 1, times are normalized, map keys strictly ascending — so a
// restored detector snapshots back to exactly the bytes it was restored
// from.
func (d *Detector) RestoreState(data []byte) error {
	r := &ckpReader{b: data}
	if v := r.u8(); r.err == nil && v != CheckpointVersion {
		return fmt.Errorf("forensics: checkpoint version %d, supported %d", v, CheckpointVersion)
	}
	seq := r.u64()
	frames := r.int()
	st := newSessionState()
	st.live = d.st != nil && d.st.live
	st.frame = int(r.int())
	st.ts = r.time()

	n := r.u32()
	if r.err == nil && n > uint32(len(data)) {
		return fmt.Errorf("forensics: corrupt checkpoint: %d sessions in %d bytes", n, len(data))
	}
	sessions := make([]*Session, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		s := &Session{}
		s.Handle = bt.ConnHandle(r.u16())
		r.addr(&s.Peer)
		s.Incoming = r.bool()
		s.LocalPairingInitiation = r.bool()
		s.PeerIOCap = bt.IOCapability(r.u8())
		s.HavePeerIOCap = r.bool()
		s.PairingCompleted = r.bool()
		s.PairingStatus = hci.Status(r.u8())
		no := r.u32()
		if r.err == nil && no > uint32(len(data)) {
			return fmt.Errorf("forensics: corrupt checkpoint: %d auth outcomes", no)
		}
		for j := uint32(0); j < no && r.err == nil; j++ {
			s.AuthOutcomes = append(s.AuthOutcomes, hci.Status(r.u8()))
		}
		s.DisconnectReason = hci.Status(r.u8())
		s.Disconnected = r.bool()
		s.ConnectedAt = r.time()
		s.EndsAt = r.time()
		s.flaggedPageBlocking = r.bool()
		s.suppliedStoredKey = r.bool()
		s.flaggedSilentRepair = r.bool()
		sessions = append(sessions, s)
	}
	st.rep.Sessions = sessions
	session := func(i int64) (*Session, error) {
		if i == -1 {
			return nil, nil
		}
		if i < 0 || i >= int64(len(sessions)) {
			return nil, fmt.Errorf("forensics: corrupt checkpoint: session index %d of %d", i, len(sessions))
		}
		return sessions[i], nil
	}

	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var e KeyExposure
		e.Frame = int(r.int())
		e.Source = r.str()
		r.addr(&e.Peer)
		r.fixed(e.Key[:])
		st.rep.Exposures = append(st.rep.Exposures, e)
	}

	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		var f Finding
		f.Kind = r.str()
		f.Frame = int(r.int())
		r.addr(&f.Peer)
		f.Detail = r.str()
		s, err := session(r.int())
		if err != nil {
			return err
		}
		f.Session = s
		st.rep.Findings = append(st.rep.Findings, f)
	}

	n = r.u32()
	var prevH bt.ConnHandle
	for i := uint32(0); i < n && r.err == nil; i++ {
		h := r.handleAfter(i, &prevH)
		s, err := session(int64(r.u32()))
		if err != nil {
			return err
		}
		if s != nil {
			st.handles[uint32(h)] = handleSlot{session: s}
			st.handleSessions++
		}
	}
	n = r.u32()
	var prevP bt.BDADDR
	for i := uint32(0); i < n && r.err == nil; i++ {
		p := r.addrAfter(i, &prevP)
		s, err := session(int64(r.u32()))
		if err != nil {
			return err
		}
		if s != nil {
			st.peer(p).session = s
			st.peerSessions++
		}
	}
	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		st.peer(r.addrAfter(i, &prevP)).pendingIncoming = true
	}
	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		h := uint32(r.handleAfter(i, &prevH))
		slot := st.handles[h]
		slot.authPending = true
		st.handles[h] = slot
	}
	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		p := st.peer(r.addrAfter(i, &prevP))
		r.fixed(p.lastKey[:])
		p.haveKey = true
	}
	n = r.u32()
	for i := uint32(0); i < n && r.err == nil; i++ {
		p := st.peer(r.addrAfter(i, &prevP))
		p.lastKeyType, p.haveKeyType = bt.LinkKeyType(r.u8()), true
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("forensics: corrupt checkpoint: %d trailing bytes", len(data)-r.off)
	}
	if st.live {
		st.rep.Exposures, st.rep.Findings = nil, nil
		st.trim()
	}

	d.seq = seq
	d.frames = int(frames)
	d.pending = nil
	d.install(st)
	return nil
}

// appendPeer appends the address a peers-table key packs (peerKey).
func appendPeer(b []byte, k uint64) []byte {
	return append(b, byte(k>>40), byte(k>>32), byte(k>>24), byte(k>>16), byte(k>>8), byte(k))
}

func appendCkpBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendCkpInt(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// appendCkpTime encodes a wall-clock instant as a presence flag plus
// Unix seconds and nanoseconds. Capture timestamps carry no monotonic
// reading and are always handled in UTC, so the round-trip through
// time.Unix(...).UTC() reconstructs a deeply equal value.
func appendCkpTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(t.Unix()))
	b = binary.LittleEndian.AppendUint32(b, uint32(t.Nanosecond()))
	return b
}

func appendCkpString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// ckpReader decodes the checkpoint format with sticky error handling:
// the first short read or bounds failure poisons the reader, every
// later accessor returns zero values, and the caller checks err once.
type ckpReader struct {
	b   []byte
	off int
	err error
}

func (r *ckpReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) || n < 0 {
		r.err = fmt.Errorf("forensics: corrupt checkpoint: truncated at byte %d", r.off)
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *ckpReader) u8() byte {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *ckpReader) fail(at int, what string) {
	if r.err == nil {
		r.err = fmt.Errorf("forensics: corrupt checkpoint: %s at byte %d", what, at)
	}
}

// bool accepts only the 0 and 1 appendCkpBool writes.
func (r *ckpReader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail(r.off-1, "non-canonical bool")
	}
	return v == 1
}

func (r *ckpReader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (r *ckpReader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (r *ckpReader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (r *ckpReader) int() int64 { return int64(r.u64()) }

func (r *ckpReader) str() string {
	n := r.u32()
	if r.err == nil && n > uint32(len(r.b)) {
		r.err = fmt.Errorf("forensics: corrupt checkpoint: string length %d", n)
		return ""
	}
	return string(r.take(int(n)))
}

func (r *ckpReader) addr(p *bt.BDADDR) {
	copy(p[:], r.take(len(p)))
}

// handleAfter reads the i-th key of a sorted handle set, which must be
// strictly greater than the previous one in *prev.
func (r *ckpReader) handleAfter(i uint32, prev *bt.ConnHandle) bt.ConnHandle {
	h := bt.ConnHandle(r.u16())
	if i > 0 && h <= *prev {
		r.fail(r.off-2, "handle keys out of order")
	}
	*prev = h
	return h
}

// addrAfter reads the i-th key of a sorted address set, which must be
// strictly greater than the previous one in *prev.
func (r *ckpReader) addrAfter(i uint32, prev *bt.BDADDR) bt.BDADDR {
	var p bt.BDADDR
	r.addr(&p)
	if i > 0 && bytes.Compare(p[:], prev[:]) <= 0 {
		r.fail(r.off-len(p), "address keys out of order")
	}
	*prev = p
	return p
}

func (r *ckpReader) fixed(p []byte) {
	copy(p, r.take(len(p)))
}

// time accepts only what appendCkpTime writes: flag 0 alone for the
// zero time, or flag 1 with a non-zero instant and nanoseconds below 1e9.
func (r *ckpReader) time() time.Time {
	at := r.off
	if !r.bool() {
		return time.Time{}
	}
	sec := int64(r.u64())
	nsec := int64(r.u32())
	if r.err != nil {
		return time.Time{}
	}
	t := time.Unix(sec, nsec).UTC()
	if nsec >= 1e9 || t.IsZero() {
		r.fail(at, "non-canonical time")
	}
	return t
}
