package sentinel

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// syncBuffer is a mutex-guarded event sink for in-process servers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Lines() []byte { return b.Since(0) }

// Len is how many bytes the buffer holds, a mark for Since.
func (b *syncBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Len()
}

// Since copies what was written after the buffer held mark bytes.
func (b *syncBuffer) Since(mark int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()[mark:]...)
}

func parseEvents(t *testing.T, raw []byte) []Event {
	t.Helper()
	var out []Event
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func synthCapture(t testing.TB, records int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// synthDense synthesizes the dense capture shape: a new session every 8
// records, so findings arrive about every 10 records, in bursts.
func synthDense(t testing.TB, records int, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: records, Seed: seed, SessionEvery: 8}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// TestConcurrentStreamsMatchBatch is the subsystem's acceptance test:
// many concurrent clients stream synthesized captures as one-shot
// sessions over real TCP and Unix sockets — enough of them that every
// event shard carries several streams at once — and for every stream
// the live finding events must equal the batch forensics.Analyze
// findings over the same records: kind, frame, sequence, peer, and
// detail, record for record, in per-stream order even though four shard
// writers interleave their batches on the shared output.
func TestConcurrentStreamsMatchBatch(t *testing.T) {
	const clients = 64 // several streams per shard, per the acceptance bar

	var out syncBuffer
	ends := make(chan StreamSummary, clients)
	sock := filepath.Join(t.TempDir(), "blapd.sock")
	s := startServer(t, Config{
		TCPAddr:      "127.0.0.1:0",
		UnixAddr:     sock,
		HTTPAddr:     "127.0.0.1:0",
		MaxStreams:   clients,
		Shards:       4,
		Output:       &out,
		OnStreamEnd:  func(sum StreamSummary) { ends <- sum },
		Store:        openTestStore(t),
		MetricsEvery: 10 * time.Millisecond,
	})

	// Unique record counts let us match stream IDs back to captures from
	// the stream-end events alone.
	captures := make(map[int][]byte) // record count -> capture
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		records := 4000 + 17*i
		data := synthCapture(t, records, int64(100+i))
		captures[records] = data
		network, addr := "tcp", s.TCPAddr()
		if i%2 == 1 {
			network, addr = "unix", s.UnixAddr()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sendOneShot(network, addr, data, true); err != nil {
				t.Errorf("stream %s: %v", network, err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		select {
		case sum := <-ends:
			if sum.Status != StatusClean {
				t.Fatalf("stream %d ended %q (%v)", sum.ID, sum.Status, sum.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("timed out waiting for stream %d of %d to finish", i+1, clients)
		}
	}

	events := parseEvents(t, out.Lines())
	byStream := make(map[uint64][]Event)
	for _, ev := range events {
		byStream[ev.Stream] = append(byStream[ev.Stream], ev)
	}
	if len(byStream) != clients {
		t.Fatalf("events for %d streams, want %d", len(byStream), clients)
	}

	totalFindings, totalRecords := 0, 0
	streamFindings := make(map[uint64]int, clients)
	for id, evs := range byStream {
		if evs[0].Type != EventStreamStart {
			t.Fatalf("stream %d: first event %q", id, evs[0].Type)
		}
		end := evs[len(evs)-1]
		if end.Type != EventStreamEnd || end.Status != StatusClean {
			t.Fatalf("stream %d: last event %+v", id, end)
		}
		data, ok := captures[end.Records]
		if !ok {
			t.Fatalf("stream %d: no capture with %d records", id, end.Records)
		}
		if end.Offset != int64(len(data)) {
			t.Fatalf("stream %d: end offset %d, capture is %d bytes", id, end.Offset, len(data))
		}

		recs, err := snoop.ReadAll(data)
		if err != nil {
			t.Fatal(err)
		}
		want := forensics.Analyze(recs).Findings
		live := evs[1 : len(evs)-1]
		if len(live) != len(want) {
			t.Fatalf("stream %d: %d live findings, batch has %d", id, len(live), len(want))
		}
		for j, ev := range live {
			if ev.Type != EventFinding {
				t.Fatalf("stream %d: mid-stream event %q", id, ev.Type)
			}
			w := want[j]
			if ev.Seq != uint64(j+1) || ev.Frame != w.Frame || ev.Kind != w.Kind ||
				ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
				t.Fatalf("stream %d finding %d:\nlive:  %+v\nbatch: %+v", id, j, ev, w)
			}
		}
		totalFindings += len(want)
		totalRecords += end.Records
		streamFindings[id] = len(want)
	}

	// Daemon-wide metrics must add up across streams: every record, and
	// one detect-latency observation per finding.
	snap := s.Snapshot()
	if snap.StreamsTotal != clients || snap.StreamsActive != 0 {
		t.Fatalf("streams total=%d active=%d", snap.StreamsTotal, snap.StreamsActive)
	}
	if snap.Records != uint64(totalRecords) || snap.DetectLatency.Count != uint64(totalFindings) {
		t.Fatalf("metrics count %d records and %d detect observations, streams ended with %d records and %d findings",
			snap.Records, snap.DetectLatency.Count, totalRecords, totalFindings)
	}
	var kinds uint64
	for _, n := range snap.FindingsKind {
		kinds += n
	}
	if kinds != uint64(totalFindings) {
		t.Fatalf("metrics count %d findings, events show %d", kinds, totalFindings)
	}
	if snap.Packets["acl"] == 0 || snap.Packets["command"] == 0 || snap.Packets["event"] == 0 {
		t.Fatalf("packet-type counters empty: %+v", snap.Packets)
	}

	// The HTTP surface serves the same snapshot and reports healthy.
	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var httpSnap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&httpSnap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if httpSnap.StreamsTotal != clients || httpSnap.Records != snap.Records {
		t.Fatalf("http snapshot %+v", httpSnap)
	}
	hresp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hresp.StatusCode)
	}

	// Every shard's persist loop appends to the same store series at
	// once: /query must return each finding exactly once, attributed to
	// its own stream, and one end per stream. Persistence is async, so
	// poll until the findings land.
	query := func(path string) QueryResult {
		t.Helper()
		resp, err := http.Get("http://" + s.HTTPAddr() + path + "&limit=1000000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res QueryResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return res
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		res := query("/query?series=findings")
		if res.Count == totalFindings {
			break
		}
		if res.Count > totalFindings || time.Now().After(deadline) {
			t.Fatalf("/query has %d findings, streams emitted %d", res.Count, totalFindings)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for id, n := range streamFindings {
		if res := query(fmt.Sprintf("/query?series=findings&stream=%d", id)); res.Count != n {
			t.Fatalf("/query stream=%d has %d findings, want %d", id, res.Count, n)
		}
	}
	for {
		res := query("/query?series=ends")
		if res.Count == clients {
			break
		}
		if res.Count > clients || time.Now().After(deadline) {
			t.Fatalf("/query has %d stream ends, want %d", res.Count, clients)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamEndClassification drives each way a stream can die through
// the reader-fed Ingest path and checks the operator-facing status.
func TestStreamEndClassification(t *testing.T) {
	data := synthCapture(t, 500, 3)
	s := New(Config{})

	if sum := s.Ingest("test", "clean", bytes.NewReader(data)); sum.Status != StatusClean ||
		sum.Err != nil || sum.Offset != int64(len(data)) {
		t.Fatalf("clean: %+v", sum)
	}

	cut := len(data) - 7
	sum := s.Ingest("test", "cut", bytes.NewReader(data[:cut]))
	if sum.Status != StatusTruncated || !errors.Is(sum.Err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated: %+v", sum)
	}
	if sum.Offset != int64(cut) {
		t.Fatalf("truncated at offset %d, reported %d", cut, sum.Offset)
	}

	bad := append([]byte(nil), data...)
	bad[16+3] = 0 // first record header: original length 0 < included
	sum = s.Ingest("test", "framing", bytes.NewReader(bad))
	if sum.Status != StatusBadFraming || !errors.Is(sum.Err, snoop.ErrBadFraming) {
		t.Fatalf("bad framing: %+v", sum)
	}
	if sum.Offset != 16 {
		t.Fatalf("bad framing offset %d, want 16", sum.Offset)
	}

	if sum := s.Ingest("test", "garbage", bytes.NewReader([]byte("not a snoop file"))); sum.Status != StatusError {
		t.Fatalf("garbage: %+v", sum)
	}
}

// TestReadTimeoutClassifiesHungClient pins the per-read deadline: a
// client that connects, sends half a capture, and goes silent must be
// dropped as "timeout", not left holding a stream slot forever.
func TestReadTimeoutClassifiesHungClient(t *testing.T) {
	var out syncBuffer
	ends := make(chan StreamSummary, 1)
	s := startServer(t, Config{
		TCPAddr:     "127.0.0.1:0",
		ReadTimeout: 150 * time.Millisecond,
		Output:      &out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	data := synthCapture(t, 100, 5)
	conn, err := sendOneShot("tcp", s.TCPAddr(), data[:len(data)/2], false)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	select {
	case sum := <-ends:
		if sum.Status != StatusTimeout {
			t.Fatalf("hung client classified %q (%v)", sum.Status, sum.Err)
		}
		if sum.Records == 0 {
			t.Fatal("records delivered before the hang were not counted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("read deadline never fired")
	}
}

// TestMaxStreamsRejectsExcess checks the cap: connection N+1 is refused
// immediately with a stream-rejected event, not queued.
func TestMaxStreamsRejectsExcess(t *testing.T) {
	var out syncBuffer
	s := startServer(t, Config{
		TCPAddr:    "127.0.0.1:0",
		MaxStreams: 1,
		Output:     &out,
	})

	hold, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	waitFor(t, "first stream active", func() bool { return s.Snapshot().StreamsActive == 1 })

	over, err := net.Dial("tcp", s.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	waitFor(t, "second stream rejected", func() bool { return s.Snapshot().StreamsRejected == 1 })

	// The server closed the excess connection.
	_ = over.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := over.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("excess conn read: %v, want EOF", err)
	}
	// The counter moves before the shard writer has flushed the event
	// line, so the line is waited for rather than expected at once.
	waitFor(t, "stream-rejected event on the output", func() bool {
		for _, ev := range parseEvents(t, out.Lines()) {
			if ev.Type == EventStreamRejected {
				return true
			}
		}
		return false
	})
}

// TestShutdownDrains covers the SIGTERM path: draining flips /healthz to
// 503, in-flight streams get the grace period, and the deadline
// force-closes stragglers instead of hanging forever.
func TestShutdownDrains(t *testing.T) {
	var out syncBuffer
	ends := make(chan StreamSummary, 1)
	sock := filepath.Join(t.TempDir(), "drain.sock")
	s := New(Config{
		TCPAddr:     "127.0.0.1:0",
		UnixAddr:    sock,
		HTTPAddr:    "127.0.0.1:0",
		Output:      &out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	// A stream that will never finish on its own.
	data := synthCapture(t, 200, 6)
	conn, err := sendOneShot("tcp", s.TCPAddr(), data[:len(data)-5], false)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, "stream registered", func() bool { return s.Snapshot().StreamsActive == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded (forced drain)", err)
	}
	sum := <-ends
	if sum.Status == StatusClean {
		t.Fatal("forced stream reported clean")
	}
	if _, err := net.Dial("unix", sock); err == nil {
		t.Fatal("unix socket still accepting after shutdown")
	}
}

// TestIngestBoundedMemory streams a large capture through a real unix
// socket and checks the server side allocates far less than the capture
// size — the backpressure/bounded-memory claim, measured.
func TestIngestBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted by the race detector")
	}
	data := synthCapture(t, 200_000, 8)
	ends := make(chan StreamSummary, 1)
	sock := filepath.Join(t.TempDir(), "mem.sock")
	startServer(t, Config{
		UnixAddr:    sock,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	if _, err := sendOneShot("unix", sock, data, true); err != nil {
		t.Fatal(err)
	}
	sum := <-ends
	runtime.ReadMemStats(&after)

	if sum.Status != StatusClean || sum.Records != 200_000 {
		t.Fatalf("stream: %+v", sum)
	}
	if sum.Findings == 0 {
		t.Fatal("fixture produced no findings")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > uint64(len(data))/2 {
		t.Fatalf("live ingest allocated %d bytes over a %d-byte capture — not bounded", allocated, len(data))
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// wedgedWriter accepts writes until a trigger count, then blocks forever
// (until released) — a stand-in for an event consumer that stops reading.
type wedgedWriter struct {
	mu      sync.Mutex
	writes  int
	wedgeAt int
	release chan struct{}
}

func (w *wedgedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	wedged := w.writes > w.wedgeAt
	w.mu.Unlock()
	if wedged {
		<-w.release
	}
	return len(p), nil
}

// A wedged event consumer must cost events — counted per stream and
// daemon-wide — but never stall ingestion or Shutdown.
func TestWedgedEventConsumerDropsEventsNotIngestion(t *testing.T) {
	w := &wedgedWriter{wedgeAt: 1, release: make(chan struct{})}
	defer close(w.release)
	srv := New(Config{
		Output:       w,
		WriteTimeout: 50 * time.Millisecond,
		EventBuffer:  2,
	})

	data := synthCapture(t, 5000, 3)
	start := time.Now()
	sum := srv.Ingest("reader", "wedged", bytes.NewReader(data))
	elapsed := time.Since(start)

	if sum.Status != StatusClean || sum.Records != 5000 {
		t.Fatalf("ingestion must complete despite the wedged consumer: %+v", sum)
	}
	if sum.EventsDropped == 0 {
		t.Fatal("a wedged consumer must surface dropped events in the stream summary")
	}
	if snap := srv.Snapshot(); snap.EventsDropped == 0 {
		t.Fatalf("events_dropped missing from /metrics snapshot: %+v", snap)
	}
	// The whole ingest must be bounded by a handful of write deadlines,
	// not by one deadline per emitted event.
	if elapsed > 5*time.Second {
		t.Fatalf("ingestion stalled behind the wedged consumer: %v", elapsed)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // must return (bounded by ctx), not hang on the writer
}

// With a live consumer, the per-write deadline path must not drop
// anything, and the stream-end line must carry events_dropped: 0.
func TestHealthyConsumerDropsNothing(t *testing.T) {
	var out syncBuffer
	srv := New(Config{Output: &out, WriteTimeout: time.Second, EventBuffer: 4})
	data := synthCapture(t, 2000, 4)
	sum := srv.Ingest("reader", "healthy", bytes.NewReader(data))
	if sum.EventsDropped != 0 {
		t.Fatalf("healthy consumer dropped events: %+v", sum)
	}
	evs := parseEvents(t, out.Lines())
	var end *Event
	for i := range evs {
		if evs[i].Type == EventStreamEnd {
			end = &evs[i]
		}
	}
	if end == nil {
		t.Fatal("no stream-end event")
	}
	if end.EventsDropped != 0 {
		t.Fatalf("stream-end reports dropped events on a healthy consumer: %+v", end)
	}
}
