package sentinel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// settleGoroutines waits until runtime.NumGoroutine is back to at most
// base, and fails with every goroutine's stack if it is not within ten
// seconds: no goroutine of a finished stream may outlive it.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// requireServing checks the daemon still runs a stream to a clean end.
func requireServing(t *testing.T, s *Server, capture []byte) {
	t.Helper()
	if sum := s.Ingest("test", "survivor", bytes.NewReader(capture)); sum.Status != StatusClean {
		t.Fatalf("survivor status %q (err %v), want clean", sum.Status, sum.Err)
	}
}

// recordOffset returns the capture offset of record k's header.
func recordOffset(t *testing.T, capture []byte, k int) int {
	t.Helper()
	off := 16
	for i := 0; i < k; i++ {
		if off+24 > len(capture) {
			t.Fatalf("capture has fewer than %d records", k)
		}
		off += 24 + int(binary.BigEndian.Uint32(capture[off+4:off+8]))
	}
	return off
}

// TestCorruptHeaderWithIdleClientEnds: a capture that hits a corrupt
// record header while its client stays connected and idle ends
// "bad-framing" at once, not at the read deadline. The scanner stops
// first, with the transport blocked reading a socket that delivers
// nothing more; the pipeline must wake it (a read-ahead stage that only
// waits for it would hold the stream, its slot and its goroutines until
// ReadTimeout).
func TestCorruptHeaderWithIdleClientEnds(t *testing.T) {
	// Small enough that the client's one write lands in the socket
	// buffer whole before the daemon can end the stream and close.
	capture := synthCapture(t, 1000, 29)
	bad := append([]byte(nil), capture...)
	at := recordOffset(t, bad, 600)
	binary.BigEndian.PutUint32(bad[at:at+4], 1) // original 1 < included
	ends := make(chan StreamSummary, 2)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		ReadTimeout: time.Minute,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	base := runtime.NumGoroutine()

	conn, err := sendOneShot("unix", s.UnixAddr(), bad, false) // no fin: idle
	if err != nil {
		t.Fatal(err)
	}
	sum := endOf(t, ends, "corrupt stream")
	if sum.Status != StatusBadFraming || sum.Offset != int64(at) || sum.Records != 600 {
		t.Fatalf("end %+v, want bad-framing at offset %d after 600 records", sum, at)
	}
	// The daemon closed its side: the idle client reads EOF.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("client read after the end: %v", err)
	}
	_ = conn.Close()

	requireServing(t, s, capture)
	settleGoroutines(t, base)
}

// TestDetectorPanicWhileTransportHoldsEveryBlock: the detector panics
// on its first batch only once the transport has every pool block out
// and waits for one — the client's writes have stalled. The stream ends
// "panic", the daemon keeps serving, and every goroutine of the stream
// exits. It also pins the read-ahead bound: by the stall the process
// had allocated the pool's blocks and little else, and the daemon had
// received (and acked) no more than the pool's blocks plus one block
// per batch the scanner could fill and release early.
func TestDetectorPanicWhileTransportHoldsEveryBlock(t *testing.T) {
	capture := synthCapture(t, 200_000, 23)
	bound := int64((ingestBlocks + ingestRingDepth + 1) * ingestBlockBytes)
	if int64(len(capture)) < bound+(4<<20) {
		t.Fatalf("capture of %d bytes cannot outrun a read-ahead bound of %d plus socket buffers", len(capture), bound)
	}
	ends := make(chan StreamSummary, 2)
	var victim atomic.Uint64
	var written, acked atomic.Int64
	var stalled atomic.Bool
	var allocBase uint64
	var allocated atomic.Uint64
	cfg := Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		AckEvery:    64 << 10,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	}
	cfg.beforeBatch = func(stream uint64) {
		if stream != victim.Load() {
			return
		}
		last, since := written.Load(), time.Now()
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			if w := written.Load(); w != last {
				last, since = w, time.Now()
			} else if time.Since(since) > 300*time.Millisecond {
				stalled.Store(true)
				break
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocated.Store(ms.TotalAlloc - allocBase)
		panic("synthetic detector failure")
	}
	s := startServer(t, cfg)
	base := runtime.NumGoroutine()

	victim.Store(s.nextID.Load() + 1)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBase = ms.TotalAlloc
	conn, _, err := DialSession("unix", s.UnixAddr(), "", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var clients sync.WaitGroup
	clients.Add(2)
	go func() {
		defer clients.Done()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			var ev Event
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Type == EventSessionAck && ev.Offset > acked.Load() {
				acked.Store(ev.Offset)
			}
		}
	}()
	go func() {
		defer clients.Done()
		_, _ = WriteSessionBytes(countingWriter{conn, &written}, capture)
	}()

	sum := endOf(t, ends, "panicked stream")
	clients.Wait()
	_ = conn.Close()
	if sum.Status != StatusPanic || sum.Err == nil || sum.Err.Error() != "panic: synthetic detector failure" {
		t.Fatalf("end %+v, want the detector panic", sum)
	}
	if !stalled.Load() {
		t.Fatal("the client never stalled: the transport did not run out of blocks")
	}
	if a := acked.Load(); a == 0 || a > bound {
		t.Fatalf("daemon acked %d bytes while its detector held one batch, want 1..%d", a, bound)
	}
	if w := written.Load(); w >= int64(len(capture)) {
		t.Fatalf("client wrote the whole %d-byte capture past a stalled detector", w)
	}
	// The pool is the stream's memory: ingestBlocks blocks with their
	// headroom, allocated by the time the transport ran out, and nothing
	// block-sized besides.
	pool := uint64(ingestBlocks * (ingestBlockBytes + snoop.BlockHeadroom))
	if a := allocated.Load(); !raceEnabled && (a < pool || a > pool+512<<10) {
		t.Fatalf("allocated %d bytes from dial to the stall, want the pool's %d plus at most 512 KiB", a, pool)
	}

	victim.Store(0)
	requireServing(t, s, capture[:recordOffset(t, capture, 2000)])
	settleGoroutines(t, base)
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestWatchdogKillMidChunkUnwinds: the watchdog kills a stream whose
// detector is wedged while its client sits in the middle of a chunk.
// The stream ends "error" and frees its slot at once; once the wedged
// detector returns, the abandoned scanner and transport exit too.
func TestWatchdogKillMidChunkUnwinds(t *testing.T) {
	capture := synthCapture(t, 2000, 31)
	ends := make(chan StreamSummary, 2)
	var victim atomic.Uint64
	wedge := make(chan struct{})
	cfg := Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		MaxStreams:  1,
		Watchdog:    75 * time.Millisecond,
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
	conn, _, err := DialSession("unix", s.UnixAddr(), "", "", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// A chunk header announcing the whole capture, then half of it.
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(capture)))
	if _, err := conn.Write(append(hdr[:], capture[:len(capture)/2]...)); err != nil {
		t.Fatal(err)
	}
	sum := endOf(t, ends, "wedged stream")
	if sum.Status != StatusError || sum.Err == nil || !bytes.Contains([]byte(sum.Err.Error()), []byte("watchdog")) {
		t.Fatalf("end %+v, want the watchdog error", sum)
	}
	victim.Store(0)
	requireServing(t, s, capture)

	close(wedge)
	_ = conn.Close()
	settleGoroutines(t, base)
}

// TestManyClosedLoopSessionsEndClean is the liveness stress: 240 small
// closed-loop sessions, named and one-shot, four at a time, each sent
// whole with its fin, must all end "clean" with every record counted
// and the batch analyzer's finding count; none may hang, and no
// goroutine may outlive them.
func TestManyClosedLoopSessionsEndClean(t *testing.T) {
	const sessions, clients = 240, 4
	records := [2]int{300, 12_000}
	captures := [][]byte{synthCapture(t, records[0], 41), synthCapture(t, records[1], 43)}
	var findings [2]int
	for i, c := range captures {
		rep, err := forensics.AnalyzeBytes(c)
		if err != nil {
			t.Fatal(err)
		}
		findings[i] = len(rep.Findings)
	}
	ends := make(chan StreamSummary, sessions)
	s := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "s.sock"),
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	base := runtime.NumGoroutine()

	shape := make(map[uint64]int) // stream id → capture index
	var mu sync.Mutex
	errs := make(chan error, sessions)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < sessions; i += clients {
				sid := ""
				if i%2 == 0 {
					sid = fmt.Sprintf("stress-%d", i)
				}
				if err := closedLoop(s.UnixAddr(), sid, captures[i%3%2], func(id uint64) {
					mu.Lock()
					shape[id] = i % 3 % 2
					mu.Unlock()
				}); err != nil {
					errs <- fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for n := 0; n < sessions; n++ {
		sum := endOf(t, ends, "stress stream")
		k, ok := shape[sum.ID]
		if !ok || sum.Status != StatusClean || sum.Records != records[k] || sum.Findings != uint64(findings[k]) {
			t.Fatalf("stream %d ended %+v, want clean with %d records and %d findings",
				sum.ID, sum, records[k], findings[k])
		}
	}
	settleGoroutines(t, base)
}

// closedLoop sends one capture whole over a fresh session with its fin
// and waits for the daemon to end the stream and close its side.
func closedLoop(addr, sid string, capture []byte, started func(uint64)) error {
	conn, hello, err := DialSession("unix", addr, sid, "", 10*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	started(hello.Stream)
	drained := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, conn)
		drained <- err
	}()
	if _, err = WriteSessionBytes(conn, capture); err == nil {
		err = WriteSessionFin(conn)
	}
	if err != nil {
		_ = conn.Close()
		<-drained
		return err
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	return <-drained
}
