package sentinel

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/forensics"
	"repro/internal/tsdb"
)

// Wire protocol.
//
// Every socket stream is a session; there is no other framing. A
// connection opens with the eight bytes of sessionMagic, a one-byte
// protocol version, a little-endian u16 session-id length and the id
// bytes, and a u16 tenant length and the tenant bytes. The server
// answers with a session-hello JSONL line on the connection carrying
// the stream id and the capture byte offset it already holds; the
// client seeks its capture to that offset and sends payload as u32-LE
// length-prefixed chunks, a zero-length chunk marking the clean end.
// The server acks delivery progress (session-ack lines, every
// Config.AckEvery payload bytes, best effort) on the same connection.
//
// An empty session id (and no tenant) is a one-shot stream: resume
// disabled, no session-table entry, no tenant slot, no checkpoints. A
// transport cut ends it "truncated"; only the fin ends it "clean".
//
// A named session is resumable. When the transport dies mid-stream the
// server parks the pipeline — scanner tail, detector state, counters,
// everything — for Config.ResumeGrace, keyed by the session id. A
// reconnect with the same id adopts the parked pipeline: the hello tells
// the client where to resume, and the findings the merged run emits are
// byte-identical to an uninterrupted ingest of the same capture (the
// chaos differential in chaos.go sweeps a cut at every payload offset to
// pin exactly that). A restart survives too: periodic detector
// checkpoints land in the store, RecoverSessions rebuilds parkable
// entries from them, and a reconnect restores the detector from the
// checkpoint (the hello then points at the checkpoint offset, which is
// always a record boundary).
const (
	sessionMagic   = "blapses1"
	sessionVersion = 1
	// maxSessionID / maxTenantLen bound handshake allocations; an id is
	// an operator-chosen resume key, not a payload.
	maxSessionID = 128
	maxTenantLen = 64
	// maxSessionChunk rejects absurd chunk headers before allocating or
	// waiting on them — the client-side chunker writes sessionChunkSize.
	// The chunk matches the ingest scanner's block size so the framing
	// adds one 4-byte header read per scanner block fill, not several.
	maxSessionChunk  = 4 << 20
	sessionChunkSize = 256 << 10
	// connWriteDeadline bounds hello/ack writes to the client socket so a
	// client that stopped reading cannot wedge the ingest reader.
	connWriteDeadline = 2 * time.Second
)

// sessionCounters is the daemon-wide session-lifecycle accounting
// surfaced as the "sessions" block of /metrics.
type sessionCounters struct {
	parked      atomic.Int64
	parkedTotal atomic.Uint64
	resumed     atomic.Uint64
	expired     atomic.Uint64
	checkpoints atomic.Uint64
	restored    atomic.Uint64
}

// sessionEntry is the session table's record for one session id: the
// live stream bound to it, or a parked/cold pipeline waiting for a
// reconnect. All fields are guarded by Server.sessMu except the
// channels, which are safe to use after a locked lookup.
type sessionEntry struct {
	sid    string
	tenant string
	stream uint64
	// conn is the session's current transport (nil while parked/cold).
	conn net.Conn
	// resumeC hands a replacement transport to the parked reader;
	// capacity 1, latest-wins (the router drains a stale queued conn
	// before pushing).
	resumeC chan net.Conn
	// abortC, closed by shutdown, tells a parked reader to die as
	// "aborted" (checkpointed, resumable after restart) instead of
	// waiting out the grace window.
	abortC chan struct{}
	// aborted records that abortC is closed (close-once guard).
	aborted bool
	// parked is true while a live pipeline is waiting in park().
	parked bool
	// cold marks an entry rebuilt from a stored checkpoint by
	// RecoverSessions: there is no pipeline to adopt — a reconnect
	// restores the detector from ckpt and starts a fresh one.
	cold bool
	// gone marks the entry dead (dropped from the table); a racing
	// holder of a stale pointer must treat it as absent.
	gone bool
	// admitted records that this entry holds a tenant quota slot.
	admitted bool
	// expire times out a cold entry that nobody reclaims.
	expire *time.Timer
	// ckpt is the restored checkpoint backing a cold entry.
	ckpt *ckptDoc
}

// handleConn owns one accepted ingestion connection. There is one
// protocol: a connection that does not open with sessionMagic (a bare
// btsnoop capture, a short or silent stream) is rejected with a
// stream-rejected event naming the missing handshake; routeSession
// takes the rest, an empty session id being a one-shot stream. st is
// the provisional stream registered at accept time.
func (s *Server) handleConn(st *streamState, conn net.Conn) {
	var magic [len(sessionMagic)]byte
	if t := s.cfg.ReadTimeout; t > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(t))
	}
	_, err := io.ReadFull(conn, magic[:])
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil || string(magic[:]) != sessionMagic {
		s.rejectSession(st, conn, "", fmt.Sprintf("no session handshake: a stream must open with %q", sessionMagic))
		return
	}
	s.routeSession(st, conn)
}

// readSessionHandshake parses the post-magic handshake fields. An empty
// id is accepted only with an empty tenant: it names a one-shot stream.
func (s *Server) readSessionHandshake(conn net.Conn) (sid, tenant string, err error) {
	if t := s.cfg.ReadTimeout; t > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(t))
		defer conn.SetReadDeadline(time.Time{})
	}
	var b [2]byte
	if _, err := io.ReadFull(conn, b[:1]); err != nil {
		return "", "", fmt.Errorf("session handshake: %w", err)
	}
	if b[0] != sessionVersion {
		return "", "", fmt.Errorf("session protocol version %d unsupported (want %d)", b[0], sessionVersion)
	}
	readStr := func(max int, what string) (string, error) {
		if _, err := io.ReadFull(conn, b[:2]); err != nil {
			return "", fmt.Errorf("session handshake %s length: %w", what, err)
		}
		n := int(binary.LittleEndian.Uint16(b[:2]))
		if n > max {
			return "", fmt.Errorf("session %s %d bytes exceeds cap %d", what, n, max)
		}
		if n == 0 {
			return "", nil
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return "", fmt.Errorf("session handshake %s: %w", what, err)
		}
		return string(buf), nil
	}
	if sid, err = readStr(maxSessionID, "id"); err != nil {
		return "", "", err
	}
	if tenant, err = readStr(maxTenantLen, "tenant"); err != nil {
		return "", "", err
	}
	if sid == "" && tenant != "" {
		return "", "", fmt.Errorf("session tenant %q needs a session id (an empty id is a one-shot stream)", tenant)
	}
	return sid, tenant, nil
}

// rejectSession tears down a handshaking connection: the reason is
// written to the client (so DialSession surfaces it) and emitted as a
// stream-rejected event, the provisional stream is unwound, and the
// slot is released.
func (s *Server) rejectSession(st *streamState, conn net.Conn, sid, reason string) {
	s.metrics.streamsRejected.Add(1)
	ev := Event{Type: EventStreamRejected, Stream: st.id,
		Proto: st.proto, Label: st.label, Session: sid, Error: reason}
	_ = writeConnEvent(conn, ev)
	s.emit(nil, ev)
	s.unregister(st)
	_ = conn.Close()
	st.release()
}

// routeSession binds a handshaken connection to the session table:
// empty id → a one-shot pipeline outside the table; fresh id → new
// pipeline; cold id → restore the checkpointed detector and resume
// mid-capture; live or parked id → hand the transport to the existing
// pipeline (latest connection wins).
func (s *Server) routeSession(st *streamState, conn net.Conn) {
	sid, tenant, err := s.readSessionHandshake(conn)
	if err != nil {
		s.rejectSession(st, conn, "", err.Error())
		return
	}
	if sid == "" {
		// One-shot: st.ent stays nil, so park ends the stream at the first
		// transport error and the st.session gates skip checkpoints.
		_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: st.id})
		s.runPipeline(st, newSessionReader(s, st, conn, 0), nil)
		return
	}
	s.sessMu.Lock()
	ent := s.sessions[sid]
	if ent != nil && ent.gone {
		ent = nil
	}
	switch {
	case ent == nil:
		if !s.admitTenantLocked(tenant) {
			q := s.cfg.TenantQuota
			s.sessMu.Unlock()
			s.rejectSession(st, conn, sid, fmt.Sprintf("tenant quota %d reached", q))
			return
		}
		ent = &sessionEntry{
			sid: sid, tenant: tenant, stream: st.id, conn: conn,
			admitted: tenant != "",
			resumeC:  make(chan net.Conn, 1),
			abortC:   make(chan struct{}),
		}
		s.sessions[sid] = ent
		s.sessMu.Unlock()
		st.session, st.tenant, st.ent = sid, tenant, ent
		_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: st.id, Session: sid})
		s.runPipeline(st, newSessionReader(s, st, conn, 0), nil)

	case ent.cold:
		if !s.admitTenantLocked(ent.tenant) {
			q := s.cfg.TenantQuota
			s.sessMu.Unlock()
			// The cold entry survives the rejection: the checkpoint stays
			// reclaimable until its grace timer fires.
			s.rejectSession(st, conn, sid, fmt.Sprintf("tenant quota %d reached", q))
			return
		}
		ent.cold = false
		ent.admitted = ent.tenant != ""
		ent.conn = conn
		if ent.expire != nil {
			ent.expire.Stop()
			ent.expire = nil
		}
		ckpt := ent.ckpt
		s.sessMu.Unlock()

		det := forensics.NewLiveDetector()
		if err := det.RestoreState(ckpt.State); err != nil {
			s.sessMu.Lock()
			s.dropSessionLocked(ent)
			s.sessMu.Unlock()
			s.rejectSession(st, conn, sid, fmt.Sprintf("checkpoint restore: %v", err))
			return
		}
		// Rebind to the restored identity: the resumed stream keeps the
		// stream id its findings were emitted under before the restart.
		s.unregister(st)
		rst := &streamState{
			id: ckpt.Stream, proto: st.proto, label: st.label, conn: conn,
			session: sid, tenant: ent.tenant, ent: ent, release: st.release,
		}
		rst.sh = s.shardFor(rst.id)
		s.register(rst)
		s.sess.resumed.Add(1)
		s.emit(rst, Event{Type: EventSessionResumed, Stream: rst.id, Session: sid, Offset: ckpt.Offset})
		_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: rst.id, Session: sid, Offset: ckpt.Offset})
		s.runPipeline(rst, newSessionReader(s, rst, conn, ckpt.Offset), &resumeState{
			det: det, off: ckpt.Offset, frames: ckpt.Frames,
			datalink: ckpt.Datalink, ckptSeq: ckpt.Seq,
		})

	default:
		// Live or parked: adopt. Latest connection wins — a stale queued
		// replacement is discarded, and closing the entry's current
		// transport kicks an actively-reading pipeline into park, where it
		// immediately finds the replacement.
		select {
		case stale := <-ent.resumeC:
			_ = stale.Close()
		default:
		}
		ent.resumeC <- conn
		if ent.conn != nil {
			_ = ent.conn.Close()
			ent.conn = nil
		}
		s.sessMu.Unlock()
		s.unregister(st)
		st.release()
	}
}

// admitTenantLocked claims a tenant quota slot (sessMu held). The empty
// tenant is never quota-limited.
func (s *Server) admitTenantLocked(tenant string) bool {
	if tenant == "" {
		return true
	}
	if q := s.cfg.TenantQuota; q > 0 && s.tenants[tenant] >= q {
		return false
	}
	s.tenants[tenant]++
	return true
}

// dropSessionLocked removes an entry from the session table (sessMu
// held), releasing its tenant slot, stopping its timer, and closing any
// replacement transport queued after the decision to drop.
func (s *Server) dropSessionLocked(ent *sessionEntry) {
	if ent == nil || ent.gone {
		return
	}
	ent.gone = true
	delete(s.sessions, ent.sid)
	if ent.expire != nil {
		ent.expire.Stop()
		ent.expire = nil
	}
	if ent.admitted {
		ent.admitted = false
		if n := s.tenants[ent.tenant]; n <= 1 {
			delete(s.tenants, ent.tenant)
		} else {
			s.tenants[ent.tenant] = n - 1
		}
	}
	select {
	case c := <-ent.resumeC:
		_ = c.Close()
	default:
	}
}

// abortEntryLocked closes the entry's abort channel once (sessMu held).
func abortEntryLocked(ent *sessionEntry) {
	if ent != nil && !ent.aborted {
		ent.aborted = true
		close(ent.abortC)
	}
}

// abortSessions marks every session for shutdown: live and parked
// entries get their abort channel closed (the pipeline ends "aborted"
// after checkpointing), cold entries are dropped silently — their
// checkpoints are already durable and a restarted daemon rebuilds them.
func (s *Server) abortSessions() {
	s.sessMu.Lock()
	ents := make([]*sessionEntry, 0, len(s.sessions))
	for _, ent := range s.sessions {
		ents = append(ents, ent)
	}
	for _, ent := range ents {
		if ent.cold {
			s.dropSessionLocked(ent)
			continue
		}
		abortEntryLocked(ent)
	}
	s.sessMu.Unlock()
}

// sessionReader adapts the chunked session transport into the plain
// io.Reader the scanner pipeline consumes — and hides transport death
// from it: a read error parks the stream inside Read for the resume
// grace window and, on adoption, continues delivering bytes as if
// nothing happened. Only the reader goroutine touches its fields.
type sessionReader struct {
	s  *Server
	st *streamState
	// conn is the current transport (replaced across adoptions).
	conn net.Conn
	// remaining is what's left of the current chunk.
	remaining int64
	// delivered counts payload bytes handed to the scanner — the resume
	// offset a warm hello advertises (the scanner may hold a partial
	// record tail inside that count; an adopting client does not resend
	// it).
	delivered int64
	ackedAt   int64
	fin       bool
	// onPark, set by runPipeline, pushes a checkpoint marker through the
	// batch ring. Called on the reader goroutine — the ring's producer —
	// right after the stream parks, so the detector snapshots exactly
	// the state matching the park offset.
	onPark func()
	hdr    [4]byte
}

func newSessionReader(s *Server, st *streamState, conn net.Conn, delivered int64) *sessionReader {
	return &sessionReader{s: s, st: st, conn: conn, delivered: delivered, ackedAt: delivered}
}

func (r *sessionReader) Read(p []byte) (int, error) {
	for {
		if r.fin {
			return 0, io.EOF
		}
		if r.remaining == 0 {
			if err := r.readHeader(); err != nil {
				if terminalTransport(err) {
					return 0, err
				}
				if resumed, perr := r.park(); !resumed {
					return 0, perr
				}
				continue
			}
			n := binary.LittleEndian.Uint32(r.hdr[:])
			if n == 0 {
				r.fin = true
				return 0, io.EOF
			}
			if n > maxSessionChunk {
				return 0, fmt.Errorf("sentinel: session chunk %d bytes exceeds cap %d", n, maxSessionChunk)
			}
			r.remaining = int64(n)
		}
		limit := len(p)
		if int64(limit) > r.remaining {
			limit = int(r.remaining)
		}
		n, err := r.readConn(p[:limit])
		if n > 0 {
			r.remaining -= int64(n)
			r.delivered += int64(n)
			r.maybeAck()
			// An error delivered alongside bytes resurfaces on the next
			// call; the bytes go to the scanner first.
			return n, nil
		}
		if err == nil {
			continue
		}
		if terminalTransport(err) {
			return 0, err
		}
		if resumed, perr := r.park(); !resumed {
			return 0, perr
		}
	}
}

// terminalTransport reports errors that must end the stream rather than
// park it: a read deadline means the client is connected and silent —
// the timeout classification, not a disconnect.
func terminalTransport(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// readHeader reads the next chunk header under one absolute deadline.
// Partial header bytes lost to a transport cut are not capture bytes:
// an adopting client re-frames from the acked payload offset.
func (r *sessionReader) readHeader() error {
	if t := r.s.cfg.ReadTimeout; t > 0 {
		_ = r.conn.SetReadDeadline(time.Now().Add(t))
	}
	_, err := io.ReadFull(r.conn, r.hdr[:])
	return err
}

func (r *sessionReader) readConn(p []byte) (int, error) {
	if t := r.s.cfg.ReadTimeout; t > 0 {
		_ = r.conn.SetReadDeadline(time.Now().Add(t))
	}
	return r.conn.Read(p)
}

func (r *sessionReader) maybeAck() {
	if r.delivered-r.ackedAt < r.s.cfg.AckEvery {
		return
	}
	r.ackedAt = r.delivered
	_ = writeConnEvent(r.conn, Event{Type: EventSessionAck, Stream: r.st.id, Offset: r.delivered})
}

// park suspends the stream after a transport error. It returns
// (true, nil) once a replacement connection was adopted, or
// (false, err) with the error that must end the stream: ErrAborted for
// shutdown, io.ErrUnexpectedEOF for a one-shot stream (no entry to park
// on) or when the grace window expired — the capture is then truncated
// at the death offset.
func (r *sessionReader) park() (bool, error) {
	s, st := r.s, r.st
	ent := st.ent
	if ent == nil {
		return false, io.ErrUnexpectedEOF
	}
	adopt := func(c net.Conn) (bool, error) {
		r.adopt(c)
		s.sess.resumed.Add(1)
		s.emit(st, Event{Type: EventSessionResumed, Stream: st.id, Session: st.session, Offset: r.delivered})
		return true, nil
	}
	// Fast path: the client reconnected before the old transport's death
	// surfaced here. Adopt without ever counting a park.
	select {
	case c := <-ent.resumeC:
		return adopt(c)
	default:
	}
	if s.draining.Load() || st.aborted.Load() {
		return false, ErrAborted
	}
	select {
	case <-ent.abortC:
		return false, ErrAborted
	default:
	}
	if s.cfg.ResumeGrace < 0 {
		return false, io.ErrUnexpectedEOF
	}
	s.sessMu.Lock()
	if ent.gone {
		s.sessMu.Unlock()
		return false, io.ErrUnexpectedEOF
	}
	ent.parked = true
	ent.conn = nil
	s.sessMu.Unlock()
	s.connMu.Lock()
	st.conn = nil
	s.connMu.Unlock()
	s.sess.parked.Add(1)
	s.sess.parkedTotal.Add(1)
	s.emit(st, Event{Type: EventSessionParked, Stream: st.id, Session: st.session, Offset: r.delivered})
	if r.onPark != nil {
		// Checkpoint the detector at the park point: if the daemon dies
		// during the grace window, the stored state resumes this stream.
		r.onPark()
	}
	unpark := func() {
		s.sessMu.Lock()
		ent.parked = false
		s.sessMu.Unlock()
		s.sess.parked.Add(-1)
	}
	timer := time.NewTimer(s.cfg.ResumeGrace)
	defer timer.Stop()
	select {
	case c := <-ent.resumeC:
		unpark()
		return adopt(c)
	case <-ent.abortC:
		unpark()
		return false, ErrAborted
	case <-timer.C:
		s.sessMu.Lock()
		select {
		case c := <-ent.resumeC:
			// Adoption raced the expiry under the lock; the client wins.
			ent.parked = false
			s.sessMu.Unlock()
			s.sess.parked.Add(-1)
			return adopt(c)
		default:
		}
		ent.parked = false
		s.dropSessionLocked(ent)
		s.sessMu.Unlock()
		s.sess.parked.Add(-1)
		s.sess.expired.Add(1)
		s.emit(st, Event{Type: EventSessionExpired, Stream: st.id, Session: st.session, Offset: r.delivered})
		return false, io.ErrUnexpectedEOF
	}
}

// adopt switches the reader onto a replacement transport and tells the
// client where to resume: the hello's offset is the payload byte count
// already delivered to the scanner — the client seeks there and
// re-frames, so bytes lost in flight on the dead transport are simply
// sent again.
func (r *sessionReader) adopt(c net.Conn) {
	s, st := r.s, r.st
	s.connMu.Lock()
	st.conn = c
	s.connMu.Unlock()
	s.sessMu.Lock()
	st.ent.conn = c
	s.sessMu.Unlock()
	r.conn = c
	r.remaining = 0
	r.ackedAt = r.delivered
	_ = writeConnEvent(c, Event{Type: EventSessionHello, Stream: st.id, Session: st.session, Offset: r.delivered})
}

// writeConnEvent writes one JSONL event to the client connection under
// a short deadline. Best effort: the ingest path never waits on a
// client that stopped reading.
func writeConnEvent(conn net.Conn, ev Event) error {
	buf := ev.appendJSON(make([]byte, 0, 192))
	buf = append(buf, '\n')
	_ = conn.SetWriteDeadline(time.Now().Add(connWriteDeadline))
	_, err := conn.Write(buf)
	_ = conn.SetWriteDeadline(time.Time{})
	return err
}

// sessionKey maps a session id to the tsdb key its checkpoints are
// stored under (FNV-64a; 0 is reserved as the query wildcard).
func sessionKey(sid string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(sid))
	k := h.Sum64()
	if k == tsdb.KeyAny {
		k = 1
	}
	return k
}

// RecoverSessions rebuilds parkable session entries from the
// checkpoints persisted in the store: for every session whose
// highest-seq checkpoint is not a tombstone, a cold entry is created
// that a reconnecting client can claim within ResumeGrace (after which
// it expires with a session-expired event and a tombstone). Stream id
// allocation continues above the highest restored id so resumed and new
// streams never collide. Call after New and before Start; returns the
// number of sessions restored.
func (s *Server) RecoverSessions() (int, error) {
	if s.cfg.Store == nil {
		return 0, fmt.Errorf("sentinel: RecoverSessions requires a store")
	}
	best := make(map[string]*ckptDoc)
	err := s.cfg.Store.Query(SeriesCkpt, 0, math.MaxInt64, tsdb.KeyAny, func(fr tsdb.Frame) error {
		var d ckptDoc
		if decodeCkptFrame(fr.Data, &d) != nil || d.Session == "" {
			return nil // skip corrupt frames; later checkpoints still count
		}
		if b, ok := best[d.Session]; !ok || d.Seq > b.Seq {
			dd := d
			best[d.Session] = &dd
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	restored := 0
	var maxStream uint64
	s.sessMu.Lock()
	for sid, d := range best {
		if d.Done {
			continue
		}
		if _, exists := s.sessions[sid]; exists {
			continue
		}
		ent := &sessionEntry{
			sid: sid, tenant: d.Tenant, stream: d.Stream,
			cold: true, ckpt: d,
			resumeC: make(chan net.Conn, 1),
			abortC:  make(chan struct{}),
		}
		if s.cfg.ResumeGrace > 0 {
			e := ent
			ent.expire = time.AfterFunc(s.cfg.ResumeGrace, func() { s.expireCold(e) })
		}
		s.sessions[sid] = ent
		if d.Stream > maxStream {
			maxStream = d.Stream
		}
		restored++
	}
	s.sessMu.Unlock()
	for {
		cur := s.nextID.Load()
		if cur >= maxStream || s.nextID.CompareAndSwap(cur, maxStream) {
			break
		}
	}
	s.sess.restored.Add(uint64(restored))
	return restored, nil
}

// expireCold retires a cold entry nobody reclaimed: the session table
// slot goes away, a session-expired event records it, and a tombstone
// checkpoint (best effort) stops the next restart from resurrecting it.
func (s *Server) expireCold(ent *sessionEntry) {
	s.sessMu.Lock()
	if ent.gone || !ent.cold {
		s.sessMu.Unlock()
		return
	}
	s.dropSessionLocked(ent)
	s.sessMu.Unlock()
	s.sess.expired.Add(1)
	s.emit(nil, Event{Type: EventSessionExpired, Stream: ent.stream, Session: ent.sid, Offset: ent.ckpt.Offset})
	sh := s.shardFor(ent.stream)
	if sh.persist != nil {
		d := *ent.ckpt
		d.Seq++
		d.Done = true
		d.State = nil
		sh.tryPersist(persistItem{ckpt: &d, ts: time.Now().UnixNano()}, false)
	}
}

// watchdogLoop scans for streams whose detector stage has been busy on
// one batch longer than Config.Watchdog and force-fails them — a wedged
// detector (or a stalled test hook) costs its own stream, never the
// daemon. Ticks at a quarter of the threshold.
func (s *Server) watchdogLoop() {
	defer close(s.wdDone)
	period := s.cfg.Watchdog / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.wdStop:
			return
		case now := <-t.C:
			var stalled []*streamState
			s.connMu.Lock()
			for _, st := range s.streams {
				if st.beat.Stalled(now, s.cfg.Watchdog) {
					stalled = append(stalled, st)
				}
			}
			s.connMu.Unlock()
			for _, st := range stalled {
				s.failWedged(st)
			}
		}
	}
}

// failWedged force-fails one stream whose detector loop stopped making
// progress: its session is aborted, its transport closed, and the
// stream finalized as "error" from the counters the pipeline maintained
// — the wedged goroutines are abandoned (their late emissions are
// dropped by the finalize guard) and the stream slot is released. No
// final checkpoint is written: a wedged detector's state is suspect, so
// the last periodic checkpoint remains the durable resume point.
func (s *Server) failWedged(st *streamState) {
	if st.finalized.Load() {
		return
	}
	if st.ent != nil {
		s.sessMu.Lock()
		abortEntryLocked(st.ent)
		s.sessMu.Unlock()
	}
	st.aborted.Store(true)
	s.connMu.Lock()
	if st.conn != nil {
		_ = st.conn.Close()
	}
	s.connMu.Unlock()
	err := fmt.Errorf("sentinel: watchdog: detector stalled past %v", s.cfg.Watchdog)
	sum := StreamSummary{
		ID: st.id, Proto: st.proto, Label: st.label,
		Records:  int(st.records.Load()),
		Bytes:    st.bytes.Load(),
		Findings: st.findings.Load(),
		Status:   StatusError,
		Offset:   st.bytes.Load(),
		Err:      err,
	}
	end := Event{
		Type: EventStreamEnd, Stream: st.id, Proto: st.proto, Label: st.label,
		Session: st.session, Status: StatusError, Offset: sum.Offset,
		Records: sum.Records, Bytes: sum.Bytes, Findings: sum.Findings,
		EventsDropped: st.dropped.Load(), Error: err.Error(),
	}
	s.finalize(st, &sum, end)
}

// SessionHello is the server's answer to a session handshake: the
// stream id bound to the session and the capture byte offset the server
// already holds — the client resumes sending from there.
type SessionHello struct {
	Stream uint64
	Offset int64
}

// DialSession opens an ingestion session: it dials the server,
// performs the session handshake (id and optional tenant), and returns
// the connection plus the server's hello. On a fresh session the hello
// offset is 0; on a resume it is where to seek the capture before
// streaming with WriteSessionChunks. An empty session (with an empty
// tenant) opens a one-shot stream: resume disabled, so a cut before the
// fin ends it truncated. timeout bounds the dial and the handshake round
// trip; <=0 means no deadline.
func DialSession(network, addr, session, tenant string, timeout time.Duration) (net.Conn, SessionHello, error) {
	if len(session) > maxSessionID {
		return nil, SessionHello{}, fmt.Errorf("sentinel: session id length %d exceeds %d", len(session), maxSessionID)
	}
	if len(tenant) > maxTenantLen {
		return nil, SessionHello{}, fmt.Errorf("sentinel: tenant length %d exceeds %d", len(tenant), maxTenantLen)
	}
	if session == "" && tenant != "" {
		return nil, SessionHello{}, fmt.Errorf("sentinel: tenant %q needs a session id (an empty id is a one-shot stream)", tenant)
	}
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, SessionHello{}, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	hs := make([]byte, 0, len(sessionMagic)+5+len(session)+len(tenant))
	hs = append(hs, sessionMagic...)
	hs = append(hs, sessionVersion)
	hs = binary.LittleEndian.AppendUint16(hs, uint16(len(session)))
	hs = append(hs, session...)
	hs = binary.LittleEndian.AppendUint16(hs, uint16(len(tenant)))
	hs = append(hs, tenant...)
	if _, err := conn.Write(hs); err != nil {
		_ = conn.Close()
		return nil, SessionHello{}, fmt.Errorf("sentinel: session handshake write: %w", err)
	}
	// The hello is the first line on the wire; read it byte-by-byte so
	// nothing past the newline (acks arrive later) is consumed.
	line := make([]byte, 0, 192)
	var one [1]byte
	for {
		if _, err := conn.Read(one[:]); err != nil {
			_ = conn.Close()
			return nil, SessionHello{}, fmt.Errorf("sentinel: session hello read: %w", err)
		}
		if one[0] == '\n' {
			break
		}
		line = append(line, one[0])
		if len(line) > 512 {
			_ = conn.Close()
			return nil, SessionHello{}, fmt.Errorf("sentinel: session hello line exceeds 512 bytes")
		}
	}
	var hello struct {
		Type   string `json:"type"`
		Stream uint64 `json:"stream"`
		Offset int64  `json:"offset"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(line, &hello); err != nil {
		_ = conn.Close()
		return nil, SessionHello{}, fmt.Errorf("sentinel: bad session hello %q: %w", line, err)
	}
	if hello.Type != EventSessionHello {
		_ = conn.Close()
		if hello.Error != "" {
			return nil, SessionHello{}, fmt.Errorf("sentinel: session rejected: %s", hello.Error)
		}
		return nil, SessionHello{}, fmt.Errorf("sentinel: unexpected %q in place of session hello", hello.Type)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, SessionHello{Stream: hello.Stream, Offset: hello.Offset}, nil
}

// WriteSessionChunks streams r to an established session connection in
// length-prefixed chunks, returning the payload byte count written. It
// does not write the fin marker — call WriteSessionFin after, or close
// the connection to leave the session resumable.
func WriteSessionChunks(w io.Writer, r io.Reader) (int64, error) {
	// Header and payload go out in one writev (net.Buffers) so each
	// chunk costs a single syscall on a socket; non-conn writers fall
	// back to sequential writes with identical bytes on the wire.
	buf := make([]byte, 4+sessionChunkSize)
	var total int64
	for {
		n, rerr := r.Read(buf[4:])
		if n > 0 {
			binary.LittleEndian.PutUint32(buf[:4], uint32(n))
			bufs := net.Buffers{buf[:4], buf[4 : 4+n]}
			nn, err := bufs.WriteTo(w)
			if m := nn - 4; m > 0 {
				total += m
			}
			if err != nil {
				return total, err
			}
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// WriteSessionBytes streams an in-memory capture to an established
// session connection in length-prefixed chunks, returning the payload
// byte count written. Wire bytes are identical to WriteSessionChunks
// over the same data; the difference is purely client-side cost — each
// chunk is a writev straight out of the caller's slice, so the capture
// is never staged through an intermediate buffer. On a host where the
// sending client shares cores with the daemon (the co-located
// configuration the ingest benches measure), that copy is pure loss.
func WriteSessionBytes(w io.Writer, data []byte) (int64, error) {
	var hdr [4]byte
	var total int64
	for off := 0; off < len(data); off += sessionChunkSize {
		end := off + sessionChunkSize
		if end > len(data) {
			end = len(data)
		}
		binary.LittleEndian.PutUint32(hdr[:], uint32(end-off))
		bufs := net.Buffers{hdr[:], data[off:end]}
		nn, err := bufs.WriteTo(w)
		if m := nn - 4; m > 0 {
			total += m
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// WriteSessionFin writes the zero-length chunk that marks the clean end
// of a session stream.
func WriteSessionFin(w io.Writer) error {
	var hdr [4]byte
	_, err := w.Write(hdr[:])
	return err
}
