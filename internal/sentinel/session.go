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
// A named session is resumable, and there is one resume path. When the
// transport dies mid-stream the pipeline ends as at any stream end, but
// instead of finalizing it parks: the session entry keeps the stream's
// state, its drained detector and the detector's position (the last
// record boundary it consumed) for Config.ResumeGrace, and the stream
// slot, goroutines and buffers are freed. A reconnect with the same id
// starts a new pipeline from that state — runPipeline with a
// resumeState — and the hello tells the client the offset to resend
// from. The findings the merged run emits are byte-identical to an
// uninterrupted ingest of the same capture (the chaos differential in
// chaos_test.go sweeps a cut at every payload offset to pin exactly
// that). A restart survives too: periodic and park-time detector
// checkpoints land in the store, RecoverSessions rebuilds entries from
// them, and a reconnect restores the detector from the checkpoint and
// resumes the same way.
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

// handoffTimeout bounds how long a reconnect waits for the session's
// running pipeline to park after closing its transport.
const handoffTimeout = 10 * time.Second

// errSessionCut ends the pipeline of a named session whose transport
// died: the finale parks the stream instead of ending it. A stream that
// ends on it anyway is "truncated".
var errSessionCut = errors.New("sentinel: session transport cut")

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

// sessionEntry is the session table's record for one session id: a
// running pipeline, a parked stream (res) or a checkpoint restored from
// the store (ckpt) waiting for a reconnect. All fields are guarded by
// Server.sessMu.
type sessionEntry struct {
	sid    string
	tenant string
	stream uint64
	// conn is the session's latest transport: the running pipeline's, or
	// a reconnect's waiting for the handoff. A newer reconnect closes it.
	conn net.Conn
	// handoff is closed when the running pipeline parks or ends; nil
	// while no pipeline runs.
	handoff chan struct{}
	// res is the parked stream, set while no pipeline runs.
	res *resumeState
	// ckpt is the stored checkpoint of an entry RecoverSessions rebuilt,
	// until a reconnect restores it.
	ckpt *ckptDoc
	// gone marks the entry dead (dropped from the table); a racing
	// holder of a stale pointer must treat it as absent.
	gone bool
	// admitted records that this entry holds a tenant quota slot.
	admitted bool
	// expire ends a parked or restored entry nobody reclaims.
	expire *time.Timer
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
// pipeline; known id → claim the entry's parked stream or stored
// checkpoint and resume it in a new pipeline (latest connection wins).
func (s *Server) routeSession(st *streamState, conn net.Conn) {
	sid, tenant, err := s.readSessionHandshake(conn)
	if err != nil {
		s.rejectSession(st, conn, "", err.Error())
		return
	}
	if sid == "" {
		// One-shot: st.ent stays nil, so a cut ends the stream instead of
		// parking it and the st.session gates skip checkpoints.
		_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: st.id})
		s.runPipeline(st, newSessionReader(s, st, conn, 0), nil)
		return
	}
	s.sessMu.Lock()
	ent := s.sessions[sid]
	if ent == nil {
		if !s.admitTenantLocked(tenant) {
			s.sessMu.Unlock()
			s.rejectSession(st, conn, sid, fmt.Sprintf("tenant quota %d reached", s.cfg.TenantQuota))
			return
		}
		ent = &sessionEntry{
			sid: sid, tenant: tenant, stream: st.id, conn: conn,
			handoff: make(chan struct{}), admitted: tenant != "",
		}
		s.sessions[sid] = ent
		s.sessMu.Unlock()
		st.session, st.tenant, st.ent = sid, tenant, ent
		_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: st.id, Session: sid})
		s.runPipeline(st, newSessionReader(s, st, conn, 0), nil)
		return
	}
	res, err := s.claimLocked(ent, conn)
	if err != nil {
		s.rejectSession(st, conn, sid, err.Error())
		return
	}
	// A parked stream keeps its state and counters; a restored one gets
	// the stream id its findings were emitted under before the restart.
	rst := res.st
	if rst == nil {
		rst = &streamState{id: ent.stream, proto: st.proto, label: st.label,
			session: sid, tenant: ent.tenant, ent: ent}
		rst.sh = s.shardFor(rst.id)
	}
	rst.conn, rst.release = conn, st.release
	s.unregister(st)
	s.register(rst)
	s.sess.resumed.Add(1)
	s.emit(rst, Event{Type: EventSessionResumed, Stream: rst.id, Session: sid, Offset: res.off})
	_ = writeConnEvent(conn, Event{Type: EventSessionHello, Stream: rst.id, Session: sid, Offset: res.off})
	s.runPipeline(rst, newSessionReader(s, rst, conn, res.off), res)
}

// claimLocked makes conn the entry's transport and takes what it holds
// to resume (sessMu held on entry, released on return). Latest
// connection wins: conn closes the entry's previous transport, and if a
// pipeline still runs on it, waits (bounded) for that pipeline to park.
// A stored checkpoint is restored into a fresh live detector here, the
// only place RestoreState runs.
func (s *Server) claimLocked(ent *sessionEntry, conn net.Conn) (*resumeState, error) {
	if ent.ckpt != nil && !s.admitTenantLocked(ent.tenant) {
		// The restored entry survives the rejection: the checkpoint stays
		// reclaimable until its grace timer fires.
		s.sessMu.Unlock()
		return nil, fmt.Errorf("tenant quota %d reached", s.cfg.TenantQuota)
	}
	if ent.conn != nil {
		_ = ent.conn.Close()
	}
	ent.conn = conn
	if ch := ent.handoff; ch != nil {
		s.sessMu.Unlock()
		t := time.NewTimer(handoffTimeout)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
		s.sessMu.Lock()
	}
	var err error
	switch {
	case ent.gone:
		err = fmt.Errorf("session %q ended before the handoff", ent.sid)
	case ent.conn != conn:
		err = fmt.Errorf("session %q taken over by a newer connection", ent.sid)
	case ent.handoff != nil:
		ent.conn = nil
		err = fmt.Errorf("session %q: the previous connection did not hand over within %v", ent.sid, handoffTimeout)
	}
	if err != nil {
		s.sessMu.Unlock()
		return nil, err
	}
	res, ckpt := ent.res, ent.ckpt
	if res != nil {
		s.sess.parked.Add(-1)
	}
	if ckpt != nil {
		ent.admitted = ent.tenant != ""
	}
	ent.res, ent.ckpt = nil, nil
	if ent.expire != nil {
		ent.expire.Stop()
		ent.expire = nil
	}
	ent.handoff = make(chan struct{})
	s.sessMu.Unlock()
	if ckpt == nil {
		return res, nil
	}
	det := forensics.NewLiveDetector()
	if err := det.RestoreState(ckpt.State); err != nil {
		s.sessMu.Lock()
		s.dropSessionLocked(ent)
		s.sessMu.Unlock()
		return nil, fmt.Errorf("checkpoint restore: %v", err)
	}
	return &resumeState{det: det, off: ckpt.Offset, frames: ckpt.Frames,
		datalink: ckpt.Datalink, ckptSeq: ckpt.Seq}, nil
}

// parkStream ends a cut session's pipeline without ending its stream: the
// detector is checkpointed at its position (the last record boundary
// it consumed), the stream leaves the active set and gives up its
// transport and slot, and the entry keeps res for a reconnect to claim
// within ResumeGrace. It reports false, leaving the stream to end, when
// the stream is already finalized, its entry dropped, or the server
// draining.
func (s *Server) parkStream(res *resumeState) bool {
	st := res.st
	ent := st.ent
	if st.finalized.Load() {
		return false
	}
	s.queueCheckpoint(st, res.det, res.off, res.frames, res.datalink, &res.ckptSeq, true)
	s.emit(st, Event{Type: EventSessionParked, Stream: st.id, Session: st.session, Offset: res.off})
	s.unregister(st)
	s.connMu.Lock()
	own := st.conn
	st.conn = nil
	s.connMu.Unlock()
	if own != nil {
		_ = own.Close()
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if ent.gone || s.draining.Load() {
		// Shutdown (abortSessions) has passed or is waiting on this lock;
		// either way it will not see this entry parked.
		return false
	}
	if ent.conn == own {
		ent.conn = nil
	}
	ent.res = res
	close(ent.handoff)
	ent.handoff = nil
	ent.expire = time.AfterFunc(s.cfg.ResumeGrace, func() { s.expireSession(ent, res, nil) })
	// The slot goes before the gauge moves, so whoever sees the session
	// parked also finds its slot free.
	st.release()
	s.sess.parked.Add(1)
	s.sess.parkedTotal.Add(1)
	return true
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
// held), releasing its tenant slot, stopping its timer, un-counting a
// parked stream and waking a reconnect waiting for the handoff.
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
	if ent.res != nil {
		ent.res = nil
		s.sess.parked.Add(-1)
	}
	if ent.handoff != nil {
		close(ent.handoff)
		ent.handoff = nil
	}
	if ent.admitted {
		ent.admitted = false
		if n := s.tenants[ent.tenant]; n <= 1 {
			delete(s.tenants, ent.tenant)
		} else {
			s.tenants[ent.tenant] = n - 1
		}
	}
}

// abortSessions retires every session without a running pipeline at
// shutdown: a parked stream ends "aborted" with a final checkpoint,
// resumable after a restart; a restored entry is dropped silently, its
// checkpoint already durable. A running pipeline ends by itself: a cut
// while draining aborts instead of parking.
func (s *Server) abortSessions() {
	var parked []*resumeState
	s.sessMu.Lock()
	for _, ent := range s.sessions {
		if ent.res == nil && ent.ckpt == nil {
			continue
		}
		if ent.res != nil {
			parked = append(parked, ent.res)
		}
		s.dropSessionLocked(ent)
	}
	s.sessMu.Unlock()
	// One goroutine each, as their pipelines would have ended them: a
	// wedged consumer then costs Shutdown one write deadline, not one
	// per parked session. Shutdown waits for them in streamWg.
	for _, res := range parked {
		s.streamWg.Add(1)
		go func() {
			defer s.streamWg.Done()
			s.endStream(res, res.frames, res.off, StatusAborted, ErrAborted)
		}()
	}
}

// expireSession ends an entry nobody reclaimed within ResumeGrace —
// the parked stream res or the restored checkpoint ckpt its timer was
// armed for; a claim since then, or a shutdown, makes the call a no-op
// (abortSessions ends what is still parked at shutdown). The entry
// leaves the table and a session-expired event records it. A parked
// stream ends "truncated" at its park offset (its tombstone written by
// endStream); a restored checkpoint gets a best-effort tombstone so the
// next restart does not resurrect it.
func (s *Server) expireSession(ent *sessionEntry, res *resumeState, ckpt *ckptDoc) {
	s.sessMu.Lock()
	if ent.gone || ent.res != res || ent.ckpt != ckpt || s.draining.Load() {
		// Claimed since, or left to abortSessions.
		s.sessMu.Unlock()
		return
	}
	s.dropSessionLocked(ent)
	// Shutdown waits for this end as for a pipeline's: under sessMu the
	// Add is ordered before abortSessions, and so before streamWg.Wait.
	s.streamWg.Add(1)
	s.sessMu.Unlock()
	defer s.streamWg.Done()
	s.sess.expired.Add(1)
	if res != nil {
		s.emit(res.st, Event{Type: EventSessionExpired, Stream: res.st.id, Session: ent.sid, Offset: res.off})
		s.endStream(res, res.frames, res.off, StatusTruncated, io.ErrUnexpectedEOF)
		return
	}
	s.emit(nil, Event{Type: EventSessionExpired, Stream: ent.stream, Session: ent.sid, Offset: ckpt.Offset})
	sh := s.shardFor(ent.stream)
	if sh.persist != nil {
		d := *ckpt
		d.Seq++
		d.Done = true
		d.State = nil
		sh.tryPersist(persistItem{ckpt: &d, ts: time.Now().UnixNano()}, false)
	}
}

// sessionReader adapts the chunked session transport into the plain
// io.Reader the pipeline's transport goroutine fills blocks from. A
// transport error ends the read: for a named session that may resume,
// with errSessionCut, which makes the pipeline park. Only the transport
// goroutine touches its fields.
type sessionReader struct {
	s  *Server
	st *streamState
	// conn is the transport.
	conn net.Conn
	// remaining is what's left of the current chunk.
	remaining int64
	// delivered counts payload bytes received, from the offset the
	// stream (re)started at; acks report it.
	delivered int64
	ackedAt   int64
	fin       bool
	hdr       [4]byte
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
				return 0, r.cut(err)
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
		if err != nil {
			return 0, r.cut(err)
		}
	}
}

// cut maps a transport error to the error that ends the stream's
// pipeline: a read deadline means the client is connected and silent
// (the timeout classification, not a disconnect); during shutdown or
// after a watchdog kill the stream is aborted; a one-shot stream, or
// any stream with resume disabled, is truncated; a named session parks
// (errSessionCut).
func (r *sessionReader) cut(err error) error {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return err
	case r.s.draining.Load() || r.st.aborted.Load():
		return ErrAborted
	case r.st.ent == nil || r.s.cfg.ResumeGrace < 0:
		return io.ErrUnexpectedEOF
	}
	return errSessionCut
}

// readHeader reads the next chunk header under one absolute deadline.
// Partial header bytes lost to a transport cut are not capture bytes:
// a resuming client re-frames from the hello offset.
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

// RecoverSessions rebuilds session entries from the checkpoints
// persisted in the store: for every session whose highest-seq
// checkpoint is not a tombstone, an entry holding that checkpoint is
// created that a reconnecting client can claim within ResumeGrace
// (after which it expires with a session-expired event and a
// tombstone). Stream id
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
		ent := &sessionEntry{sid: sid, tenant: d.Tenant, stream: d.Stream, ckpt: d}
		if s.cfg.ResumeGrace > 0 {
			ent.expire = time.AfterFunc(s.cfg.ResumeGrace, func() { s.expireSession(ent, nil, d) })
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
// progress: it is marked aborted, its transport closed, and the stream
// finalized as "error" from the counters the pipeline maintained
// — the wedged goroutines are abandoned (their late emissions are
// dropped by the finalize guard) and the stream slot is released. No
// final checkpoint is written: a wedged detector's state is suspect, so
// the last periodic checkpoint remains the durable resume point.
func (s *Server) failWedged(st *streamState) {
	if st.finalized.Load() {
		return
	}
	// Aborted before the close, so the reader ends the stream instead of
	// parking it.
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
