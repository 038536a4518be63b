package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode/utf8"

	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// ingestSpec shapes one ingest workload.
type ingestSpec struct {
	// streams is how many session streams run at once, each carrying its
	// own capture (seeds s, s+1, ...).
	streams int
	// records and sessionEvery shape each capture (snoop.SynthConfig;
	// sessionEvery 0 is the sparse default of one session per 200 records).
	records      int
	sessionEvery int
	// rate is the open-loop send rate per stream, in records/s.
	rate float64
	// query runs one /query reader during the open loop.
	query bool
	// closedStore gives the closed-loop passes a store; the open loop
	// always has one. At full speed the dense shape writes ~65 MB/s of
	// finding lines, so its persist queue holds ~30 ms of them; a shared
	// disk stalls an fsync for longer than that now and then, and the
	// daemon then sheds persists, as it is built to, failing the pass.
	closedStore bool
}

const (
	// tickEvery is the open-loop send period.
	tickEvery = time.Millisecond
	// queryEvery paces the /query reader: 20 requests/s.
	queryEvery = 50 * time.Millisecond
	// streamWait bounds how long a client waits for a stream to end
	// after its fin; only a wedged server reaches it.
	streamWait = 60 * time.Second
)

// capture is one synthesized input plus what the checks and the open
// loop need from it.
type capture struct {
	data    []byte
	records int
	// want holds, per batch-reference finding, the bytes from `,"seq":`
	// to just before `,"capture_ts":` that the live JSONL line for the
	// same finding must carry: seq, frame, kind, peer and detail.
	want [][]byte
	// frames holds, per batch-reference finding, the frame completing it.
	frames []int
	// ticks is the open-loop schedule at the workload rate.
	ticks []tick
}

// tick is one open-loop send: the capture bytes up to end, which close
// the first frames records.
type tick struct {
	end    int
	frames int
}

func newCapture(cfg snoop.SynthConfig, rate float64) (*capture, error) {
	var buf bytes.Buffer
	buf.Grow(cfg.Records*60 + 16)
	if _, err := snoop.Synthesize(&buf, cfg); err != nil {
		return nil, fmt.Errorf("synthesizing capture: %w", err)
	}
	c := &capture{data: buf.Bytes(), records: cfg.Records}
	rep, err := forensics.AnalyzeBytes(c.data)
	if err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	c.want = make([][]byte, len(rep.Findings))
	c.frames = make([]int, len(rep.Findings))
	for i, f := range rep.Findings {
		c.want[i] = findingFields(i+1, f)
		c.frames[i] = f.Frame
	}
	if c.ticks, err = schedule(c.data, rate); err != nil {
		return nil, err
	}
	return c, nil
}

// findingFields renders the fields of finding number seq exactly as a
// sentinel finding line carries them.
func findingFields(seq int, f forensics.Finding) []byte {
	b := append([]byte(`,"seq":`), strconv.Itoa(seq)...)
	b = append(b, `,"frame":`...)
	b = strconv.AppendInt(b, int64(f.Frame), 10)
	for _, kv := range [...][2]string{{"kind", f.Kind}, {"peer", f.Peer.String()}, {"detail", f.Detail}} {
		b = append(b, `,"`+kv[0]+`":`...)
		b = appendJSONString(b, kv[1])
	}
	return b
}

// appendJSONString appends s as encoding/json renders a string. Finding
// text rarely holds a byte JSON escapes, so s is copied verbatim unless
// it does; the batch reference of a dense capture renders ~100k findings.
func appendJSONString(b []byte, s string) []byte {
	verbatim := utf8.ValidString(s) && !strings.ContainsAny(s, "\u2028\u2029")
	for i := 0; verbatim && i < len(s); i++ {
		c := s[i]
		verbatim = c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	if !verbatim {
		j, _ := json.Marshal(s) // a string always marshals
		return append(b, j...)
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// schedule cuts a capture into open-loop ticks at rate records/s: tick k
// carries the records due by (k+1)·tickEvery, ending on a record
// boundary, and the first tick also carries the file header.
func schedule(data []byte, rate float64) ([]tick, error) {
	per := rate * tickEvery.Seconds()
	var ticks []tick
	sc := snoop.NewBatchScannerBytes(data)
	var b snoop.RecordBatch
	end, frame, due := 16, 0, per
	for sc.ScanBatch(&b) {
		for _, rec := range b.Records {
			end += 24 + len(rec.Data)
			frame++
			if float64(frame) >= due {
				ticks = append(ticks, tick{end: end, frames: frame})
				due += per
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scheduling capture: %w", err)
	}
	if len(ticks) == 0 || ticks[len(ticks)-1].frames < frame {
		ticks = append(ticks, tick{end: end, frames: frame})
	}
	return ticks, nil
}

// sink is a server's Output. It keeps every byte the shard writers
// flush together with the arrival time of each write, so the checks and
// the detection latency read the event stream after the pass instead of
// parsing it on the writer's goroutine.
type sink struct {
	mu    sync.Mutex
	buf   []byte
	marks []mark
}

type mark struct {
	end int
	at  time.Time
}

// reset empties the sink, keeping its buffer for the next pass.
func (s *sink) reset() {
	s.mu.Lock()
	s.buf, s.marks = s.buf[:0], s.marks[:0]
	s.mu.Unlock()
}

func (s *sink) Write(p []byte) (int, error) {
	at := time.Now()
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.marks = append(s.marks, mark{end: len(s.buf), at: at})
	s.mu.Unlock()
	return len(p), nil
}

var (
	findingPrefix = []byte(`{"type":"finding","stream":`)
	seqKey        = []byte(`,"seq":`)
	captureTSKey  = []byte(`,"capture_ts":`)
)

// findings checks every finding line on the sink against the batch
// reference of the capture its stream carried, field by field and in
// order, and returns each finding's arrival time per stream. Every
// stream must deliver exactly its reference findings.
func (s *sink) findings(byStream map[uint64]*capture) (map[uint64][]time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	got := make(map[uint64][]time.Time, len(byStream))
	start := 0
	for _, m := range s.marks {
		chunk := s.buf[start:m.end]
		start = m.end
		for len(chunk) > 0 {
			line := chunk
			if nl := bytes.IndexByte(chunk, '\n'); nl >= 0 {
				line, chunk = chunk[:nl], chunk[nl+1:]
			} else {
				chunk = nil
			}
			if !bytes.HasPrefix(line, findingPrefix) {
				continue
			}
			rest := line[len(findingPrefix):]
			comma := bytes.IndexByte(rest, ',')
			if comma < 0 {
				return nil, fmt.Errorf("malformed finding line %q", line)
			}
			id, err := strconv.ParseUint(string(rest[:comma]), 10, 64)
			c := byStream[id]
			if err != nil || c == nil {
				return nil, fmt.Errorf("finding line for unknown stream: %q", line)
			}
			k := len(got[id])
			if k >= len(c.want) {
				return nil, fmt.Errorf("stream %d: more findings than the batch reference's %d", id, len(c.want))
			}
			i, j := bytes.Index(rest, seqKey), bytes.Index(rest, captureTSKey)
			if i < 0 || j < i || !bytes.Equal(rest[i:j], c.want[k]) {
				return nil, fmt.Errorf("stream %d finding %d: live %q, batch %q", id, k+1, line, c.want[k])
			}
			got[id] = append(got[id], m.at)
		}
	}
	for id, c := range byStream {
		if n := len(got[id]); n != len(c.want) {
			return nil, fmt.Errorf("stream %d: %d live findings, batch reference has %d", id, n, len(c.want))
		}
	}
	return got, nil
}

// server is one pass's daemon: blapd's default configuration, fed over
// an abstract unix socket (no path-length limit, nothing on disk), with
// an optional store in a fresh directory and an optional HTTP listener.
type server struct {
	srv   *sentinel.Server
	store *tsdb.Store
	dir   string
	out   *sink
	ends  chan sentinel.StreamSummary
	base  string // http://host:port when HTTP is on
}

var sockSeq atomic.Int64

type serverOpts struct {
	listen bool // unix session listener; off for in-process Ingest
	store  bool
	http   bool
}

// startServer starts a pass's daemon. Passes run one at a time and share
// the run's sink, whose buffer then grows once per run, not per pass.
func (r *run) startServer(o serverOpts) (*server, error) {
	const maxStreams = 64 // blapd's default
	r.out.reset()
	// Sized to MaxStreams, so reporting a stream's end never blocks the
	// daemon, whatever the pass does with it.
	s := &server{out: &r.out, ends: make(chan sentinel.StreamSummary, maxStreams)}
	cfg := sentinel.Config{
		// blapd's flag defaults; everything else is sentinel's default:
		// shards = GOMAXPROCS, persist buffer 8192, a checkpoint every
		// 8 MiB, an ack every 4 MiB.
		MaxStreams:   maxStreams,
		ReadTimeout:  30 * time.Second,
		MetricsEvery: 10 * time.Second,
		Output:       s.out,
		OnStreamEnd:  func(sum sentinel.StreamSummary) { s.ends <- sum },
	}
	if o.listen {
		cfg.UnixAddr = fmt.Sprintf("@blapbench-%d-%d", os.Getpid(), sockSeq.Add(1))
	}
	if o.http {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if o.store {
		st, dir, err := r.openStore()
		if err != nil {
			return nil, err
		}
		s.dir, s.store, cfg.Store = dir, st, st
	}
	s.srv = sentinel.New(cfg)
	if o.listen || o.http {
		if err := s.srv.Start(); err != nil {
			s.stop()
			s.close()
			return nil, err
		}
	}
	if o.http {
		s.base = "http://" + s.srv.HTTPAddr()
	}
	return s, nil
}

// openStore opens a store in a fresh directory with blapd's options.
func (r *run) openStore() (*tsdb.Store, string, error) {
	dir, err := os.MkdirTemp(r.opt.workdir, "store-")
	if err != nil {
		return nil, "", err
	}
	st, err := tsdb.Open(tsdb.Options{
		Dir: dir,
		Downsample: map[string]tsdb.Downsampler{
			sentinel.SeriesHist: sentinel.HistDownsample(time.Hour, 10*time.Minute),
		},
	})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, "", fmt.Errorf("opening store: %w", err)
	}
	return st, dir, nil
}

// stop drains the daemon; the store stays open for the checks.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
}

// close releases the store and its directory, then flushes the file
// system, so the kernel's writeback and block discards for this pass
// finish inside it instead of landing on a later pass or run.
func (s *server) close() {
	if s.store != nil {
		s.release()
		syscall.Sync()
	}
}

// release closes the store and removes its directory.
func (s *server) release() {
	if s.store != nil {
		_ = s.store.Close()
		_ = os.RemoveAll(s.dir)
	}
}

// addr is the session listener's address.
func (s *server) addr() string { return s.srv.UnixAddr() }

// awaitEnds collects n stream summaries.
func (s *server) awaitEnds(n int) ([]sentinel.StreamSummary, error) {
	sums := make([]sentinel.StreamSummary, 0, n)
	t := time.NewTimer(streamWait)
	defer t.Stop()
	for len(sums) < n {
		select {
		case sum := <-s.ends:
			sums = append(sums, sum)
		case <-t.C:
			return sums, fmt.Errorf("%d of %d streams never ended", n-len(sums), n)
		}
	}
	return sums, nil
}

// storedFindings counts the findings the store holds for one stream.
func (s *server) storedFindings(stream uint64) (int, error) {
	n := 0
	err := s.store.Query(sentinel.SeriesFindings, 0, math.MaxInt64, stream, func(tsdb.Frame) error {
		n++
		return nil
	})
	return n, err
}

var sessionSeq atomic.Int64

// openLoop paces one stream's sends: tick k is due at t0 + (k+1)·tickEvery
// and goes out then, or at once when the sender is behind.
type openLoop struct {
	t0   time.Time
	late []float64 // ms each tick started after it was due
}

func (ol *openLoop) due(k int) time.Time { return ol.t0.Add(time.Duration(k+1) * tickEvery) }

// send streams one capture over a fresh session: all at once in a closed
// loop (ol nil) or tick by tick in an open loop. After the fin it waits
// for the server to end the stream and close its side, draining the acks
// meanwhile, and returns the stream id from the session hello.
func send(addr string, c *capture, ol *openLoop, sp spanRef) (uint64, error) {
	ds := sp.child("sentinel.dial")
	conn, hello, err := sentinel.DialSession("unix", addr, fmt.Sprintf("bench-%d", sessionSeq.Add(1)), "", 10*time.Second)
	ds.end()
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	drained := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, conn)
		drained <- err
	}()
	if ol == nil {
		ws := sp.child("sentinel.write")
		_, err = sentinel.WriteSessionBytes(conn, c.data)
		ws.end()
	} else {
		err = ol.send(conn, c, sp)
	}
	if err == nil {
		err = sentinel.WriteSessionFin(conn)
	}
	if err != nil {
		_ = conn.Close()
		<-drained
		return hello.Stream, err
	}
	fw := sp.child("sentinel.fin_wait")
	_ = conn.SetReadDeadline(time.Now().Add(streamWait))
	err = <-drained
	fw.end()
	return hello.Stream, err
}

func (ol *openLoop) send(conn net.Conn, c *capture, sp spanRef) error {
	prev := 0
	for k, t := range c.ticks {
		due := ol.due(k)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ol.late = append(ol.late, ms(time.Since(due)))
		ts := sp.child("sentinel.tick")
		_, err := sentinel.WriteSessionBytes(conn, c.data[prev:t.end])
		ts.end()
		if err != nil {
			return err
		}
		prev = t.end
	}
	return nil
}

// detectLatencies returns, per finding, the time from the due time of
// the tick that carried its completing frame to its line's arrival.
func (ol *openLoop) detectLatencies(c *capture, arrivals []time.Time) []float64 {
	out := make([]float64, len(arrivals))
	for i, at := range arrivals {
		k := sort.Search(len(c.ticks), func(k int) bool { return c.ticks[k].frames >= c.frames[i] })
		out[i] = ms(at.Sub(ol.due(k)))
	}
	return out
}

// queryReader polls GET /query for the last second of findings, as a
// dashboard would, while a pass runs.
type queryReader struct {
	stop  chan struct{}
	done  chan struct{}
	lat   []float64 // ms per round trip
	fails int
}

func startQueryReader(base string) *queryReader {
	q := &queryReader{stop: make(chan struct{}), done: make(chan struct{})}
	tr := &http.Transport{MaxConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	go func() {
		defer close(q.done)
		defer tr.CloseIdleConnections()
		t := time.NewTicker(queryEvery)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
			}
			since := time.Now().Add(-time.Second).UTC().Format(time.RFC3339Nano)
			d, ok := getQuery(client, base+"/query?series=findings&limit=1000&since="+url.QueryEscape(since))
			q.lat = append(q.lat, d)
			if !ok {
				q.fails++
			}
		}
	}()
	return q
}

func (q *queryReader) finish() {
	close(q.stop)
	<-q.done
}

// getQuery times one /query round trip, body included; any status but
// 200 is a failure.
func getQuery(client *http.Client, u string) (float64, bool) {
	t0 := time.Now()
	resp, err := client.Get(u)
	if err != nil {
		return ms(time.Since(t0)), false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return ms(time.Since(t0)), err == nil && resp.StatusCode == http.StatusOK
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
