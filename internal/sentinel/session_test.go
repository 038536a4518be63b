package sentinel

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// sendSession streams capture[from:] over an established session conn
// with the standard chunking and a fin marker.
func sendSession(t *testing.T, conn io.Writer, capture []byte, from int64) {
	t.Helper()
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[from:])); err != nil {
		t.Fatalf("session send: %v", err)
	}
	if err := WriteSessionFin(conn); err != nil {
		t.Fatalf("session fin: %v", err)
	}
}

// TestSessionResumeAcrossReconnect pins the basic warm-resume flow and
// its observable events: parked and resumed land on the output, the
// resumed stream keeps its id, and the merged run ends clean with the
// full capture's totals.
func TestSessionResumeAcrossReconnect(t *testing.T) {
	capture := synthCapture(t, 3000, 7)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 1)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		ResumeGrace: time.Minute,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})

	conn, hello, err := DialSession("unix", s.UnixAddr(), "sess-1", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(capture) / 2)
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:cut])); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close() // die mid-stream; the server parks

	waitFor(t, "session parked", func() bool { return s.Snapshot().Sessions.Parked == 1 })

	conn2, hello2, err := DialSession("unix", s.UnixAddr(), "sess-1", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if hello2.Stream != hello.Stream {
		t.Fatalf("resumed as stream %d, want %d", hello2.Stream, hello.Stream)
	}
	if hello2.Offset <= 0 || hello2.Offset > cut {
		t.Fatalf("resume offset %d, want in (0, %d]", hello2.Offset, cut)
	}
	sendSession(t, conn2, capture, hello2.Offset)

	var sum StreamSummary
	select {
	case sum = <-ends:
	case <-time.After(10 * time.Second):
		t.Fatal("stream never ended")
	}
	if sum.Status != StatusClean {
		t.Fatalf("status %q (err %v), want clean", sum.Status, sum.Err)
	}
	if sum.Bytes != int64(len(capture)) {
		t.Fatalf("bytes %d, want %d", sum.Bytes, len(capture))
	}
	recs, err := snoop.ReadAll(capture)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != len(recs) {
		t.Fatalf("records %d, want %d", sum.Records, len(recs))
	}

	snap := s.Snapshot().Sessions
	if snap.Parked != 0 || snap.ParkedTotal != 1 || snap.Resumed != 1 {
		t.Fatalf("sessions snapshot %+v, want parked 0 / parked_total 1 / resumed 1", snap)
	}
	var sawParked, sawResumed bool
	var live []Event
	for _, ev := range parseEvents(t, out.Lines()) {
		switch ev.Type {
		case EventSessionParked:
			sawParked = true
			if ev.Session != "sess-1" {
				t.Fatalf("parked event session %q", ev.Session)
			}
		case EventSessionResumed:
			sawResumed = true
		case EventFinding:
			live = append(live, ev)
		}
	}
	if !sawParked || !sawResumed {
		t.Fatalf("parked/resumed events on output: %v/%v", sawParked, sawResumed)
	}
	// Across the cut the stream emits exactly the batch findings.
	want := forensics.Analyze(recs).Findings
	if len(want) == 0 || len(live) != len(want) {
		t.Fatalf("%d live findings across the resume, batch has %d", len(live), len(want))
	}
	for i, ev := range live {
		w := want[i]
		if ev.Stream != hello.Stream || ev.Frame != w.Frame || ev.Kind != w.Kind ||
			ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
			t.Fatalf("finding %d across the resume:\nlive:  %+v\nbatch: %+v", i, ev, w)
		}
	}
}

// TestShutdownDuringGraceParksCheckpointed: shutting down with a parked
// session must end its stream as "aborted" (with a stream-end line),
// flush its checkpoint to the store, count it in /metrics — and leak no
// goroutines.
func TestShutdownDuringGraceParksCheckpointed(t *testing.T) {
	store, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	capture := synthCapture(t, 3000, 11)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 1)
	before := runtime.NumGoroutine()
	s := New(Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		ResumeGrace: time.Hour, // parked forever unless shutdown aborts it
		Store:       store,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	conn, _, err := DialSession("unix", s.UnixAddr(), "parked-sess", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:len(capture)/2])); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	waitFor(t, "session parked", func() bool { return s.Snapshot().Sessions.Parked == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during grace window: %v", err)
	}

	var sum StreamSummary
	select {
	case sum = <-ends:
	case <-time.After(5 * time.Second):
		t.Fatal("parked stream emitted no stream-end")
	}
	if sum.Status != StatusAborted {
		t.Fatalf("status %q (err %v), want aborted", sum.Status, sum.Err)
	}
	if s.Snapshot().Sessions.Checkpoints == 0 {
		t.Fatal("no checkpoint persisted for the parked session")
	}
	var sawEnd bool
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Type == EventStreamEnd && ev.Session == "parked-sess" {
			sawEnd = true
			if ev.Status != StatusAborted {
				t.Fatalf("end line status %q, want aborted", ev.Status)
			}
		}
	}
	if !sawEnd {
		t.Fatal("no stream-end line for the parked session")
	}

	// The checkpoint must be durable and resumable: a fresh daemon on the
	// same store recovers the session.
	s2 := New(Config{Store: store, ResumeGrace: time.Hour})
	n, err := s2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s2.Shutdown(ctx2); err != nil {
		t.Fatal(err)
	}

	// Goroutine accounting: both servers are fully down; allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillRestartRecovery is the crash drill in-process: run a session
// against a store, abandon it mid-capture (simulating the process
// dying: no clean shutdown for the stream — but checkpoints already
// synced), start a second server on the same store, reconnect, and
// demand the second half's findings pick up where the checkpoint left
// off with a clean merged end.
func TestKillRestartRecovery(t *testing.T) {
	store, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	capture := synthCapture(t, 6000, 13)
	recs, err := snoop.ReadAll(capture)
	if err != nil {
		t.Fatal(err)
	}

	out1 := &syncBuffer{}
	s1 := New(Config{
		UnixAddr:        filepath.Join(t.TempDir(), "s1.sock"),
		ResumeGrace:     time.Hour,
		CheckpointEvery: 4 << 10, // checkpoint densely at test scale
		Store:           store,
		Output:          out1,
	})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}

	conn, hello, err := DialSession("unix", s1.UnixAddr(), "crash-sess", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(capture) / 2)
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:cut])); err != nil {
		t.Fatal(err)
	}
	// Wait for a durable checkpoint (the "checkpoint" line is emitted
	// only after append+sync), then tear the daemon down hard: close the
	// client and shut down with an already-expired context — the
	// force-close path, the closest in-process stand-in for kill -9 that
	// still lets us reuse the store handle.
	waitFor(t, "durable checkpoint", func() bool { return s1.Snapshot().Sessions.Checkpoints > 0 })
	_ = conn.Close()
	ctxDead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	_ = s1.Shutdown(ctxDead)

	out2 := &syncBuffer{}
	ends := make(chan StreamSummary, 1)
	s2 := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s2.sock"),
		ResumeGrace: time.Hour,
		Store:       store,
		Output:      out2,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	n, err := s2.RecoverSessions()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d sessions, want 1", n)
	}
	if got := s2.Snapshot().Sessions.Restored; got != 1 {
		t.Fatalf("restored counter %d, want 1", got)
	}

	conn2, hello2, err := DialSession("unix", s2.UnixAddr(), "crash-sess", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if hello2.Stream != hello.Stream {
		t.Fatalf("recovered as stream %d, want %d", hello2.Stream, hello.Stream)
	}
	if hello2.Offset <= 0 || hello2.Offset > cut {
		t.Fatalf("recovery offset %d, want a checkpoint inside (0, %d]", hello2.Offset, cut)
	}
	sendSession(t, conn2, capture, hello2.Offset)

	var sum StreamSummary
	select {
	case sum = <-ends:
	case <-time.After(10 * time.Second):
		t.Fatal("recovered stream never ended")
	}
	if sum.Status != StatusClean {
		t.Fatalf("status %q (err %v), want clean", sum.Status, sum.Err)
	}
	if sum.Bytes != int64(len(capture)) || sum.Records != len(recs) {
		t.Fatalf("merged totals bytes=%d records=%d, want %d/%d",
			sum.Bytes, sum.Records, len(capture), len(recs))
	}

	// Findings across both processes must equal one uninterrupted run.
	baseOut := &syncBuffer{}
	sb := New(Config{Output: baseOut})
	bsum := sb.Ingest("test", "baseline", bytes.NewReader(capture))
	if bsum.Status != StatusClean {
		t.Fatalf("baseline status %q", bsum.Status)
	}
	ctxB, cancelB := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelB()
	_ = sb.Shutdown(ctxB)

	merged := append(findingKeys(t, out1.Lines(), hello.Stream),
		findingKeys(t, out2.Lines(), hello.Stream)...)
	base := findingKeys(t, baseOut.Lines(), bsum.ID)
	if len(merged) != len(base) {
		t.Fatalf("merged findings %d, baseline %d", len(merged), len(base))
	}
	for i := range merged {
		if merged[i] != base[i] {
			t.Fatalf("finding %d differs:\n  got  %s\n  want %s", i, merged[i], base[i])
		}
	}
	if sum.Findings != bsum.Findings {
		t.Fatalf("findings total %d, baseline %d", sum.Findings, bsum.Findings)
	}
}

// stallWriter is an event consumer that dies mid-run: it records writes
// until stalled, then blocks every write until released and records
// nothing more — the JSONL output of a daemon killed at the stall.
type stallWriter struct {
	syncBuffer
	stalled atomic.Bool
	release chan struct{}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	if w.stalled.Load() {
		<-w.release
		return len(p), nil
	}
	return w.syncBuffer.Write(p)
}

// TestCheckpointNeverAheadOfOutput is the kill-9 drill with the crash
// placed where a checkpoint can get ahead of the JSONL output. The
// output dies after the first checkpoint line; the capture's remaining
// two thirds, with hundreds of findings, still stream in, so more
// checkpoints and the stream's tombstone reach the persist goroutine
// while their findings can no longer reach the output. The server is
// then abandoned, a second one recovers the session from the store and
// the client resumes it. The findings on the two outputs together must
// be exactly those of an uninterrupted run: a checkpoint (or tombstone)
// made durable before the findings it covers were written would skip
// them on resume.
func TestCheckpointNeverAheadOfOutput(t *testing.T) {
	store, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	capture := synthDense(t, 6000, 13)

	w := &stallWriter{release: make(chan struct{})}
	s1 := New(Config{
		UnixAddr:        filepath.Join(t.TempDir(), "s1.sock"),
		Shards:          1,
		ResumeGrace:     time.Hour,
		CheckpointEvery: 32 << 10,
		Store:           store,
		MetricsEvery:    -1,
		Output:          w,
		WriteTimeout:    50 * time.Millisecond,
		EventBuffer:     1 << 14,
	})
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	// The abandoned server is reaped only after the second one is done
	// with the store.
	defer func() {
		close(w.release)
		shutdown(t, s1)
	}()

	conn, hello, err := DialSession("unix", s1.UnixAddr(), "stall-sess", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cut := int64(len(capture) / 3)
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:cut])); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a checkpoint line on the output", func() bool {
		return bytes.Contains(w.Lines(), []byte(`"type":"checkpoint"`))
	})
	w.stalled.Store(true)
	sendSession(t, conn, capture, cut)
	// The stream-end frame is persisted after the stream's last
	// checkpoint and its tombstone (one FIFO queue): once it is in the
	// store, every checkpoint is durable or skipped. Abandon s1 there.
	waitFor(t, "the stream-end frame in the store", func() bool {
		return len(queryAll(t, store, SeriesEnds)) > 0
	})

	out2 := &syncBuffer{}
	ends := make(chan StreamSummary, 1)
	s2 := New(Config{
		UnixAddr:     filepath.Join(t.TempDir(), "s2.sock"),
		ResumeGrace:  time.Hour,
		Store:        store,
		MetricsEvery: -1,
		Output:       out2,
		OnStreamEnd:  func(sum StreamSummary) { ends <- sum },
	})
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	if n, err := s2.RecoverSessions(); err != nil || n != 1 {
		t.Fatalf("recovered %d sessions (%v), want 1: the stream's tombstone became durable before its findings reached the output", n, err)
	}
	conn2, hello2, err := DialSession("unix", s2.UnixAddr(), "stall-sess", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if hello2.Offset <= 0 || hello2.Offset > cut {
		t.Fatalf("resume offset %d, want the last checkpoint before the stall, inside (0, %d]", hello2.Offset, cut)
	}
	sendSession(t, conn2, capture, hello2.Offset)
	select {
	case sum := <-ends:
		if sum.Status != StatusClean {
			t.Fatalf("resumed stream ended %q (%v)", sum.Status, sum.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("resumed stream never ended")
	}

	baseOut := &syncBuffer{}
	sb := New(Config{Output: baseOut})
	bsum := sb.Ingest("test", "baseline", bytes.NewReader(capture))
	shutdown(t, sb)
	base := findingKeys(t, baseOut.Lines(), bsum.ID)
	union := map[string]bool{}
	for _, k := range append(findingKeys(t, w.Lines(), hello.Stream), findingKeys(t, out2.Lines(), hello.Stream)...) {
		union[k] = true
	}
	if len(union) != len(base) {
		t.Fatalf("the two outputs hold %d distinct findings, an uninterrupted run %d", len(union), len(base))
	}
	for _, k := range base {
		if !union[k] {
			t.Fatalf("finding lost across the crash: %s", k)
		}
	}
}

// findingKeys extracts one stream's finding lines normalized for
// cross-run comparison (stream id and ts zeroed — store-backed runs
// stamp wall clocks, the baseline does not).
func findingKeys(t *testing.T, raw []byte, stream uint64) []string {
	t.Helper()
	var res []string
	for _, ev := range parseEvents(t, raw) {
		if ev.Type != EventFinding || ev.Stream != stream {
			continue
		}
		ev.Stream, ev.TS = 0, ""
		res = append(res, string(ev.appendJSON(nil)))
	}
	return res
}

// TestPanicIsolation: a panic inside one stream's detector loop ends
// that stream with status "panic" and the recovered value on its end
// line, while a concurrent stream and the daemon itself sail on.
func TestPanicIsolation(t *testing.T) {
	capture := synthCapture(t, 2000, 17)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 2)
	var victim atomic.Uint64
	cfg := Config{
		TCPAddr:     "127.0.0.1:0",
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	}
	cfg.beforeBatch = func(stream uint64) {
		if stream == victim.Load() {
			panic("synthetic detector failure")
		}
	}
	s := startServer(t, cfg)

	// First stream: the victim. A one-shot session; id is nextID+1.
	victim.Store(s.nextID.Load() + 1)
	conn, err := sendOneShot("tcp", s.TCPAddr(), capture, false)
	if err != nil {
		t.Fatal(err)
	}

	var vsum StreamSummary
	select {
	case vsum = <-ends:
	case <-time.After(10 * time.Second):
		t.Fatal("panicked stream never ended")
	}
	_ = conn.Close()
	if vsum.Status != StatusPanic {
		t.Fatalf("victim status %q (err %v), want panic", vsum.Status, vsum.Err)
	}
	if vsum.Err == nil || vsum.Err.Error() != "panic: synthetic detector failure" {
		t.Fatalf("victim err %v, want the recovered value", vsum.Err)
	}

	// Second stream on the same daemon: unaffected.
	victim.Store(0)
	sum := s.Ingest("test", "survivor", bytes.NewReader(capture))
	if sum.Status != StatusClean {
		t.Fatalf("survivor status %q (err %v), want clean", sum.Status, sum.Err)
	}
	var sawPanicEnd bool
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Type == EventStreamEnd && ev.Stream == vsum.ID {
			sawPanicEnd = true
			if ev.Status != StatusPanic || ev.Error == "" {
				t.Fatalf("panic end line %+v", ev)
			}
		}
	}
	if !sawPanicEnd {
		t.Fatal("no stream-end line for the panicked stream")
	}
}

// TestWatchdogForceFailsWedgedDetector: a detector loop that stops
// making progress is force-failed by the watchdog — stream-end line,
// freed slot — while the daemon keeps serving.
func TestWatchdogForceFailsWedgedDetector(t *testing.T) {
	capture := synthCapture(t, 2000, 19)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 2)
	var victim atomic.Uint64
	// The hook blocks until the test releases it, after the watchdog
	// has fired; release also runs if the test fails first.
	wedge := make(chan struct{})
	var unwedge sync.Once
	release := func() { unwedge.Do(func() { close(wedge) }) }
	defer release()
	cfg := Config{
		TCPAddr:     "127.0.0.1:0",
		MaxStreams:  1, // the wedged stream holds the only slot...
		Watchdog:    75 * time.Millisecond,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	}
	cfg.beforeBatch = func(stream uint64) {
		if stream == victim.Load() {
			<-wedge
		}
	}
	s := startServer(t, cfg)
	base := runtime.NumGoroutine()

	victim.Store(s.nextID.Load() + 1)
	conn, err := sendOneShot("tcp", s.TCPAddr(), capture, false)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var vsum StreamSummary
	select {
	case vsum = <-ends:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if vsum.Status != StatusError {
		t.Fatalf("wedged status %q (err %v), want error", vsum.Status, vsum.Err)
	}
	if vsum.Err == nil || !bytes.Contains([]byte(vsum.Err.Error()), []byte("watchdog")) {
		t.Fatalf("wedged err %v, want a watchdog error", vsum.Err)
	}

	// ...which must now be free again: a second stream runs to completion
	// even though the wedged goroutines are still blocked.
	victim.Store(0)
	sum := s.Ingest("test", "after-wedge", bytes.NewReader(capture))
	if sum.Status != StatusClean {
		t.Fatalf("post-wedge status %q (err %v), want clean", sum.Status, sum.Err)
	}

	// Released, the wedged stream's goroutines must all exit.
	release()
	_ = conn.Close()
	settleGoroutines(t, base)
}

// TestTenantQuota: per-tenant admission sits ahead of the global cap —
// the quota'd tenant's third session is rejected while another tenant
// and anonymous sessions still get in; ending a session frees its slot.
func TestTenantQuota(t *testing.T) {
	s := startServer(t, Config{
		TCPAddr:     "127.0.0.1:0",
		TenantQuota: 2,
		ResumeGrace: -1, // keep teardown prompt: no parking in this test
	})

	dial := func(sid, tenant string) (io.Closer, error) {
		conn, _, err := DialSession("tcp", s.TCPAddr(), sid, tenant, 5*time.Second)
		return conn, err
	}
	a1, err := dial("a-1", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	a2, err := dial("a-2", "tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if _, err := dial("a-3", "tenant-a"); err == nil {
		t.Fatal("third tenant-a session admitted past quota 2")
	} else if !bytes.Contains([]byte(err.Error()), []byte("tenant quota 2 reached")) {
		t.Fatalf("rejection error %v, want the quota reason", err)
	}
	b1, err := dial("b-1", "tenant-b")
	if err != nil {
		t.Fatalf("tenant-b blocked by tenant-a's quota: %v", err)
	}
	defer b1.Close()
	anon, err := dial("anon-1", "")
	if err != nil {
		t.Fatalf("anonymous session blocked by quota: %v", err)
	}
	defer anon.Close()

	// Finish one tenant-a session cleanly; its slot frees.
	if err := WriteSessionFin(a1.(io.Writer)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tenant-a slot freed", func() bool {
		c, err := dial("a-4", "tenant-a")
		if err != nil {
			return false
		}
		_ = c.Close()
		return true
	})
}

// sendOneShot opens a one-shot session (empty id) and streams data over
// it. With fin it then writes the fin marker and reads to EOF, which the
// daemon sends once the stream has ended, before closing: over TCP a
// close with unread acks resets the connection and destroys capture
// bytes the daemon has not read yet (DESIGN §14). Without fin the
// connection is left open for the caller to hang, cut or close.
func sendOneShot(network, addr string, data []byte, fin bool) (net.Conn, error) {
	conn, _, err := DialSession(network, addr, "", "", 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := WriteSessionBytes(conn, data); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if !fin {
		return conn, nil
	}
	if err = WriteSessionFin(conn); err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		_, err = io.Copy(io.Discard, conn)
	}
	_ = conn.Close()
	return conn, err
}

func TestWriteSessionBytesWireParity(t *testing.T) {
	// WriteSessionBytes must put byte-identical frames on the wire as
	// WriteSessionChunks fed the same data — the zero-copy path is a
	// client-side optimization, not a protocol variant.
	sizes := []int{0, 1, 7, sessionChunkSize - 1, sessionChunkSize, sessionChunkSize + 1, 3 * sessionChunkSize}
	for _, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		var chunked, direct bytes.Buffer
		cn, err := WriteSessionChunks(&chunked, bytes.NewReader(data))
		if err != nil {
			t.Fatalf("size %d: WriteSessionChunks: %v", n, err)
		}
		dn, err := WriteSessionBytes(&direct, data)
		if err != nil {
			t.Fatalf("size %d: WriteSessionBytes: %v", n, err)
		}
		if cn != dn {
			t.Fatalf("size %d: payload counts differ: chunked %d, direct %d", n, cn, dn)
		}
		if !bytes.Equal(chunked.Bytes(), direct.Bytes()) {
			t.Fatalf("size %d: wire bytes differ", n)
		}
	}
}

// TestRawCaptureRejected: every socket stream is a session. A bare
// btsnoop capture written to the listener without the handshake is
// rejected with a stream-rejected event that names the handshake; it is
// never analyzed (no stream-start), the rejection is counted, and the
// slot is free again.
func TestRawCaptureRejected(t *testing.T) {
	out := &syncBuffer{}
	s := startServer(t, Config{TCPAddr: "127.0.0.1:0", Output: out})
	conn, err := net.DialTimeout("tcp", s.TCPAddr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The daemon closes the connection after reading the would-be magic,
	// so the tail of this write may fail; the outcome is checked below.
	_, _ = conn.Write(synthCapture(t, 500, 4))

	waitFor(t, "stream-rejected event", func() bool {
		return bytes.Contains(out.Lines(), []byte(`"type":"stream-rejected"`))
	})
	waitFor(t, "slot released", func() bool { return s.Snapshot().StreamsActive == 0 })
	var rejected int
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Type != EventStreamRejected {
			t.Fatalf("event %+v: a capture without the handshake must not be analyzed", ev)
		}
		rejected++
		if !strings.Contains(ev.Error, "session handshake") {
			t.Fatalf("rejection reason %q does not name the session handshake", ev.Error)
		}
	}
	if snap := s.Snapshot(); rejected != 1 || snap.StreamsRejected != 1 || snap.StreamsActive != 0 {
		t.Fatalf("%d stream-rejected events, streams_rejected=%d streams_active=%d; want 1, 1, 0",
			rejected, snap.StreamsRejected, snap.StreamsActive)
	}
}

// TestOneShotEndStatus pins how a one-shot stream (empty session id)
// ends under the default ResumeGrace. It has no session entry, so it
// never parks: a transport cut ends it "truncated" at the delivered
// offset at once, mid-record or at a record boundary alike. Only the
// fin makes it "clean", with the batch findings.
func TestOneShotEndStatus(t *testing.T) {
	capture := synthCapture(t, 2000, 13)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 3)
	s := startServer(t, Config{
		TCPAddr:     "127.0.0.1:0",
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	// The wait is far below the 2m default grace: a parked stream would
	// not end in time.
	end := func(what string) StreamSummary {
		t.Helper()
		select {
		case sum := <-ends:
			return sum
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: one-shot stream did not end at the transport cut", what)
			return StreamSummary{}
		}
	}
	cut := func(data []byte) {
		t.Helper()
		conn, err := sendOneShot("tcp", s.TCPAddr(), data, false)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	}

	mid := len(capture) - 7 // inside the last record
	cut(capture[:mid])
	if sum := end("mid-record cut"); sum.Status != StatusTruncated ||
		!errors.Is(sum.Err, io.ErrUnexpectedEOF) || sum.Offset != int64(mid) {
		t.Fatalf("mid-record cut: %+v, want truncated at offset %d", sum, mid)
	}

	cut(capture)
	if sum := end("boundary close"); sum.Status != StatusTruncated ||
		sum.Offset != int64(len(capture)) || sum.Records != 2000 {
		t.Fatalf("close at a record boundary without a fin: %+v, want truncated at offset %d with 2000 records",
			sum, len(capture))
	}

	if _, err := sendOneShot("tcp", s.TCPAddr(), capture, true); err != nil {
		t.Fatal(err)
	}
	sum := end("fin")
	if sum.Status != StatusClean || sum.Offset != int64(len(capture)) || sum.Records != 2000 {
		t.Fatalf("fin: %+v, want clean at offset %d with 2000 records", sum, len(capture))
	}

	rep, err := forensics.AnalyzeBytes(capture)
	if err != nil {
		t.Fatal(err)
	}
	var live []Event
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Type == EventSessionParked {
			t.Fatalf("one-shot stream parked: %+v", ev)
		}
		if ev.Type == EventFinding && ev.Stream == sum.ID {
			live = append(live, ev)
		}
	}
	if len(live) != len(rep.Findings) || len(live) == 0 {
		t.Fatalf("clean one-shot stream emitted %d findings, AnalyzeBytes found %d", len(live), len(rep.Findings))
	}
	for i, ev := range live {
		w := rep.Findings[i]
		if ev.Frame != w.Frame || ev.Kind != w.Kind || ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
			t.Fatalf("finding %d:\nlive:  %+v\nbatch: %+v", i, ev, w)
		}
	}
	if p := s.Snapshot().Sessions.ParkedTotal; p != 0 {
		t.Fatalf("sessions.parked_total = %d after one-shot cuts, want 0", p)
	}
}

// requireBatchFindings checks that one stream's finding lines on the
// output equal forensics.AnalyzeBytes over the whole capture, finding
// for finding.
func requireBatchFindings(t *testing.T, raw []byte, stream uint64, capture []byte) {
	t.Helper()
	rep, err := forensics.AnalyzeBytes(capture)
	if err != nil {
		t.Fatal(err)
	}
	var live []Event
	for _, ev := range parseEvents(t, raw) {
		if ev.Type == EventFinding && ev.Stream == stream {
			live = append(live, ev)
		}
	}
	if len(live) != len(rep.Findings) || len(live) == 0 {
		t.Fatalf("stream %d emitted %d findings, AnalyzeBytes found %d", stream, len(live), len(rep.Findings))
	}
	for i, ev := range live {
		w := rep.Findings[i]
		if ev.Frame != w.Frame || ev.Kind != w.Kind || ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
			t.Fatalf("finding %d:\nlive:  %+v\nbatch: %+v", i, ev, w)
		}
	}
}

// endOf waits for the next stream summary on ends.
func endOf(t *testing.T, ends chan StreamSummary, what string) StreamSummary {
	t.Helper()
	select {
	case sum := <-ends:
		return sum
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: stream never ended", what)
		return StreamSummary{}
	}
}

// TestParkedSessionHoldsNoSlot: a parked session holds no stream slot.
// With MaxStreams 1, a session cut at half its capture parks, and its
// own reconnect must be admitted rather than rejected for the stream
// cap; it resumes the same stream, which ends clean with the batch
// findings.
func TestParkedSessionHoldsNoSlot(t *testing.T) {
	capture := synthCapture(t, 3000, 23)
	recs, err := snoop.ReadAll(capture)
	if err != nil {
		t.Fatal(err)
	}
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 2)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		MaxStreams:  1,
		ResumeGrace: 5 * time.Second,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})

	conn, hello, err := DialSession("unix", s.UnixAddr(), "one-slot", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(capture) / 2)
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:cut])); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	waitFor(t, "session parked", func() bool { return s.Snapshot().Sessions.Parked == 1 })
	parkedActive := s.Snapshot().StreamsActive

	conn2, hello2, err := DialSession("unix", s.UnixAddr(), "one-slot", "", 5*time.Second)
	if err != nil {
		t.Fatalf("reconnect to the parked session with MaxStreams 1: %v", err)
	}
	defer conn2.Close()
	if parkedActive != 0 {
		t.Fatalf("streams_active %d while the only session was parked, want 0", parkedActive)
	}
	if hello2.Stream != hello.Stream {
		t.Fatalf("resumed as stream %d, want %d", hello2.Stream, hello.Stream)
	}
	if hello2.Offset <= 0 || hello2.Offset > cut {
		t.Fatalf("resume offset %d, want in (0, %d]", hello2.Offset, cut)
	}
	sendSession(t, conn2, capture, hello2.Offset)

	sum := endOf(t, ends, "resumed session")
	if sum.Status != StatusClean || sum.Bytes != int64(len(capture)) || sum.Records != len(recs) {
		t.Fatalf("resumed stream %+v, want clean with %d bytes and %d records", sum, len(capture), len(recs))
	}
	requireBatchFindings(t, out.Lines(), hello.Stream, capture)
}

// TestParkedSessionExpires: a parked session nobody reclaims within
// ResumeGrace expires. The stream ends "truncated" at the offset it
// parked at, with session-expired and stream-end lines, and its tenant
// slot is released: a later dial with the same id and tenant, under a
// quota of one, is admitted and starts a fresh stream at offset 0.
func TestParkedSessionExpires(t *testing.T) {
	capture := synthCapture(t, 3000, 29)
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 4)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		TenantQuota: 1,
		ResumeGrace: time.Second,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})

	conn, hello, err := DialSession("unix", s.UnixAddr(), "exp-1", "tenant-x", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(capture) / 2)
	if _, err := WriteSessionChunks(conn, bytes.NewReader(capture[:cut])); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	waitFor(t, "session parked", func() bool { return s.Snapshot().Sessions.Parked == 1 })
	if c, _, err := DialSession("unix", s.UnixAddr(), "exp-2", "tenant-x", 5*time.Second); err == nil {
		_ = c.Close()
		t.Fatal("a second tenant-x session was admitted while the parked one holds the quota of 1")
	}

	sum := endOf(t, ends, "parked session")
	if sum.ID != hello.Stream || sum.Status != StatusTruncated {
		t.Fatalf("expired stream %+v, want stream %d truncated", sum, hello.Stream)
	}
	var parkedAt, expiredAt, endAt int64 = -1, -1, -1
	var endStatus string
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Stream != hello.Stream {
			continue
		}
		switch ev.Type {
		case EventSessionParked:
			parkedAt = ev.Offset
		case EventSessionExpired:
			expiredAt = ev.Offset
		case EventStreamEnd:
			endAt, endStatus = ev.Offset, ev.Status
		}
	}
	if parkedAt <= 0 || parkedAt > cut {
		t.Fatalf("session-parked offset %d, want in (0, %d]", parkedAt, cut)
	}
	if expiredAt != parkedAt || endAt != parkedAt || sum.Offset != parkedAt || endStatus != StatusTruncated {
		t.Fatalf("parked at %d; session-expired at %d, stream-end %q at %d, summary at %d: want all truncated at the park offset",
			parkedAt, expiredAt, endStatus, endAt, sum.Offset)
	}
	if snap := s.Snapshot().Sessions; snap.Parked != 0 || snap.Expired != 1 {
		t.Fatalf("sessions %+v, want parked 0 and expired 1", snap)
	}

	conn3, hello3, err := DialSession("unix", s.UnixAddr(), "exp-1", "tenant-x", 5*time.Second)
	if err != nil {
		t.Fatalf("dial after expiry (the tenant slot must be free): %v", err)
	}
	defer conn3.Close()
	if hello3.Offset != 0 || hello3.Stream == hello.Stream {
		t.Fatalf("dial after expiry: stream %d at offset %d, want a fresh stream at offset 0", hello3.Stream, hello3.Offset)
	}
}

// TestLatestConnectionWins: a reconnect that arrives while the
// session's old transport is still open takes the session over. The
// daemon closes the old transport, the stream resumes exactly once on
// the new one, and it ends once, clean, with the batch findings.
func TestLatestConnectionWins(t *testing.T) {
	capture := synthCapture(t, 3000, 31)
	recs, err := snoop.ReadAll(capture)
	if err != nil {
		t.Fatal(err)
	}
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 2)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		ResumeGrace: time.Minute,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})

	conn1, hello1, err := DialSession("unix", s.UnixAddr(), "latest", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn1.Close()
	third := int64(len(capture) / 3)
	if _, err := WriteSessionChunks(conn1, bytes.NewReader(capture[:third])); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first third ingested", func() bool { return s.Snapshot().Bytes > 0 })

	conn2, hello2, err := DialSession("unix", s.UnixAddr(), "latest", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	// The daemon must have closed the old transport: reading it ends
	// (EOF, or a reset if it left bytes unread) instead of timing out.
	_ = conn1.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn1); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the old transport is still open after the reconnect took the session")
	}
	if hello2.Stream != hello1.Stream {
		t.Fatalf("reconnect got stream %d, want %d", hello2.Stream, hello1.Stream)
	}
	if hello2.Offset <= 0 || hello2.Offset > third {
		t.Fatalf("resume offset %d, want in (0, %d]", hello2.Offset, third)
	}
	sendSession(t, conn2, capture, hello2.Offset)

	sum := endOf(t, ends, "taken-over session")
	if sum.Status != StatusClean || sum.Bytes != int64(len(capture)) || sum.Records != len(recs) {
		t.Fatalf("stream %+v, want clean with %d bytes and %d records", sum, len(capture), len(recs))
	}
	var resumed, endLines int
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Stream != hello1.Stream {
			continue
		}
		switch ev.Type {
		case EventSessionResumed:
			resumed++
		case EventStreamEnd:
			endLines++
		}
	}
	if resumed != 1 || endLines != 1 {
		t.Fatalf("%d session-resumed and %d stream-end lines, want 1 and 1", resumed, endLines)
	}
	requireBatchFindings(t, out.Lines(), hello1.Stream, capture)
}
