// Package sentinel is the live side of the forensic analyzer: a
// long-running ingestion server that accepts btsnoop streams over TCP
// and Unix sockets, every one framed as a session (see session.go; an
// empty session id is a one-shot stream), plus arbitrary io.Readers for
// one-shot use through Ingest. It runs the incremental
// forensics.Detector per connection as bytes arrive, and emits findings
// as JSONL events the moment the session reducer produces them — while
// the capture is still being written, which is the only time the
// paper's attack signatures are actionable.
//
// Parity by construction: every stream is fed through the same Detector
// that forensics.Analyze wraps, so the events a live socket produces are
// identical (kind, frame, order) to a batch run over the same records.
//
// Fan-in is sharded, not funneled: the server runs Config.Shards event
// shards (default GOMAXPROCS), each accepted stream is pinned to one
// shard by a hash of its stream id, and each shard owns a bounded event
// queue drained by its own writer goroutine. The writer append-encodes
// events into a reused buffer (no per-event json.Marshal allocation)
// and flushes whole buffers to the shared Output under one short-held
// lock — so N cores ingesting N streams never serialize on a single
// writer goroutine or bounce a global queue's cache lines, and the
// per-stream hot counters live in per-shard padded blocks folded only
// at Snapshot time. Per-stream event order is preserved (a stream's
// events enter one FIFO queue from one goroutine); cross-stream
// interleaving was never specified and remains so. With Shards=1 the
// event path collapses to exactly the pre-shard single-writer behavior.
//
// Memory is bounded by design, not by luck: each connection owns one
// pipeline — a transport reading into a pool of ingestBlocks read
// blocks, a snoop.BatchScanner decoding them in place into a fixed set
// of ingestRingDepth record batches, SPSC rings between the three — and
// one Detector; JSONL events flow through the stream's shard queue, and
// an enqueue that cannot progress within WriteTimeout drops the event
// (counted in events_dropped, accounted per shard, and surfaced on the
// stream-end line) instead of stalling ingestion — a wedged shard
// writer costs that shard's events, never detection and never the other
// shards' events; and MaxStreams caps the number of simultaneous
// connections. Peak memory is O(MaxStreams × ingestBlocks × block size
// + Shards × EventBuffer), independent of stream length: a stream's
// pool is at most ingestBlocks × (ingestBlockBytes +
// snoop.BlockHeadroom) ≈ 2.7 MB, so ~170 MB of blocks at the default
// 64 streams.
//
// Failure is classified, not swallowed: a stream that ends on a record
// boundary is "clean" (a socket stream only with its fin chunk), one
// that dies mid-record or whose transport dies before the fin is
// "truncated" (with the byte offset where it died), corrupt length
// framing is "bad-framing", and an idle client is "timeout" — so
// operators can tell a closed phone log from a mangled capture from a
// hung uploader.
package sentinel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/snoop"
	"repro/internal/spsc"
	"repro/internal/tsdb"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default; listeners are only opened for the addresses set.
type Config struct {
	// TCPAddr is the btsnoop ingestion TCP address ("127.0.0.1:0" for an
	// ephemeral port). Empty disables TCP.
	TCPAddr string
	// UnixAddr is the ingestion Unix socket path. Empty disables it. A
	// stale socket file is removed on Start.
	UnixAddr string
	// HTTPAddr serves /metrics and /healthz. Empty disables HTTP.
	HTTPAddr string

	// MaxStreams caps concurrent ingestion streams; connections beyond
	// the cap are rejected immediately (with a stream-rejected event)
	// rather than queued, so a flood cannot build unbounded state.
	// Default 64.
	MaxStreams int
	// ReadTimeout is the per-read deadline on ingestion sockets: a
	// client that delivers no bytes for this long is classified as
	// "timeout" and dropped. Default 30s; <0 disables.
	ReadTimeout time.Duration

	// Output receives the JSONL event stream. Default io.Discard.
	// Writes are whole shard buffers under one lock, so any io.Writer
	// works; lines from different shards interleave at line granularity.
	Output io.Writer
	// WriteTimeout is the per-write deadline on the JSONL event path:
	// when a shard's event queue is full and stays full this long, the
	// event is dropped (and counted) rather than blocking ingestion on a
	// wedged consumer. Default 5s.
	WriteTimeout time.Duration
	// EventBuffer bounds how many finding events each shard's queue
	// between ingestion and that shard's writer goroutine can hold.
	// Findings travel as chunks of a drained burst, one queue item per
	// chunk, and the chunk size and queue length are derived from this
	// bound so the queue never holds more finding events than it says.
	// Default 256.
	EventBuffer int
	// Shards is the number of event/metrics shards. Streams are pinned
	// to shards by a hash of their stream id; each shard has its own
	// bounded queue, writer goroutine, and padded counter block. 0 (the
	// default) means GOMAXPROCS. Shards=1 reproduces the pre-shard
	// single-writer event path exactly.
	Shards int

	// EnablePprof mounts net/http/pprof's profiling handlers under
	// /debug/pprof on the HTTPAddr mux. Off by default: profiling
	// endpoints are operator tools, not something to expose wherever
	// /metrics is scraped.
	EnablePprof bool

	// Store, when set, persists finding and stream-end events (and
	// periodic histogram snapshots) to the embedded time-series store,
	// and mounts the /query API on the HTTP mux. Persistence rides a
	// per-shard bounded queue drained off the hot path: a slow disk
	// degrades to counted drops (the "persist" section of /metrics),
	// never blocked ingestion. The Server does not Close the store —
	// its owner does, after Shutdown.
	Store *tsdb.Store
	// PersistBuffer bounds how many finding events each shard's persist
	// queue between the event path and that shard's persist goroutine
	// can hold; like EventBuffer it counts events, not queue items.
	// Default 8192 — deep enough to absorb the finding burst batch
	// ingest can emit within a single scheduler quantum on a busy
	// one-core box (thousands of findings at >20M records/sec) while
	// still bounding queue memory to a few MB per shard.
	PersistBuffer int
	// MetricsEvery is the interval at which a cumulative metrics
	// snapshot is folded, diffed against the previous one, and the
	// delta persisted to the store's histogram series. Default 10s
	// when Store is set; <0 disables the snapshotter.
	MetricsEvery time.Duration
	// Timestamps stamps every event with the wall-clock emission time
	// (the JSONL "ts" field). Implied by Store (retention needs a wall
	// key); off by default so the one-shot batch paths stay
	// byte-deterministic across runs.
	Timestamps bool

	// ResumeGrace is how long a named session survives the death of its
	// transport: the pipeline ends and frees its stream slot, the
	// session entry keeps the stream's drained detector, counters and
	// position (parked), and a reconnect with the same session id within
	// the window resumes it in a new pipeline from the last record
	// boundary the detector consumed. Entries restored from checkpoints
	// by RecoverSessions expire on the same clock. Default 2m; <0
	// disables parking, so a transport cut ends the stream as
	// "truncated" — as it always does for a one-shot stream (empty
	// session id), which never parks.
	ResumeGrace time.Duration
	// CheckpointEvery is the capture-byte interval between periodic
	// detector checkpoints for session streams (persisted through the
	// shard persist queues; requires Store). Checkpoints also happen at
	// every park regardless of the interval. Default 8 MiB; <0 disables
	// the periodic ones.
	CheckpointEvery int64
	// AckEvery is the payload-byte interval between session-ack lines
	// written back to a session client. Acks count payload bytes the
	// stream's transport goroutine received and are written
	// synchronously on it, so each one costs the read path a
	// deadline-set plus a socket write; the default of 4 MiB keeps that
	// overhead to a handful of writes per typical capture while still
	// bounding how much a resuming client has to resend. Lower it when
	// resume granularity matters more than ingest throughput.
	AckEvery int64
	// TenantQuota caps concurrent sessions per tenant, admitted ahead of
	// the global MaxStreams cap; 0 means unlimited. Sessions with no
	// tenant are never quota-limited.
	TenantQuota int
	// Watchdog, when >0, force-fails any stream whose detector stage
	// stays busy on a single batch longer than this: the stream ends as
	// "error", its goroutines are abandoned, and the daemon keeps
	// serving. 0 disables the watchdog.
	Watchdog time.Duration

	// OnStreamEnd, when set, observes every finished stream — the hook
	// tests and benchmarks use to wait for completion.
	OnStreamEnd func(StreamSummary)

	// beforeFlush, when set, runs on a shard's writer goroutine before
	// each buffer flush, outside the output lock. Test hook: stalling it
	// wedges exactly one shard without touching the shared Output.
	beforeFlush func(shard int)
	// beforePersist, when set, runs on a shard's persist goroutine
	// before each store append. Test hook: stalling it backs up exactly
	// one shard's persist queue without touching the store or the event
	// path.
	beforePersist func(shard int)
	// beforeBatch, when set, runs on a stream's detector goroutine
	// before each batch is pushed into the detector. Test hook: panicking
	// or blocking it exercises exactly one stream's failure containment
	// (panic isolation, watchdog) without touching the detector itself.
	beforeBatch func(stream uint64)
}

func (c *Config) defaults() {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 64
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.Output == nil {
		c.Output = io.Discard
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.PersistBuffer <= 0 {
		c.PersistBuffer = 8192
	}
	if c.MetricsEvery == 0 {
		c.MetricsEvery = 10 * time.Second
	}
	if c.ResumeGrace == 0 {
		c.ResumeGrace = 2 * time.Minute
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 8 << 20
	}
	if c.AckEvery <= 0 {
		c.AckEvery = 4 << 20
	}
}

// StreamSummary describes one completed ingestion stream.
type StreamSummary struct {
	ID       uint64
	Proto    string
	Label    string
	Records  int
	Bytes    int64
	Findings uint64
	// Status is the stream-end classification (StatusClean, ...).
	Status string
	// Offset is the byte position where the stream ended or died.
	Offset int64
	// EventsDropped counts this stream's JSONL events lost to the
	// per-write deadline — nonzero means the event consumer stalled and
	// the emitted record is incomplete (detection itself never stalls).
	EventsDropped uint64
	Err           error
}

// streamState is the live bookkeeping for one in-flight stream.
type streamState struct {
	id           uint64
	proto, label string
	sh           *shard   // the event/metrics shard this stream is pinned to
	conn         net.Conn // nil for reader-fed streams (guarded by connMu)
	records      atomic.Uint64
	bytes        atomic.Int64
	findings     atomic.Uint64
	dropped      atomic.Uint64
	lastActive   atomic.Int64 // unix nanos of the last ingested record
	// session/tenant/ent bind a named session to its entry in the
	// session table (empty/nil for one-shot streams and Ingest).
	// Immutable once the pipeline starts.
	session string
	tenant  string
	ent     *sessionEntry
	// beat tracks the detector stage's busy window for the watchdog.
	beat obs.Beat
	// finalized is the once-guard on stream teardown: the natural finale
	// and the watchdog race through finalize, loser skips everything.
	finalized atomic.Bool
	// dead gates late emissions from abandoned goroutines after a
	// finalize: everything but the stream-end line is dropped.
	dead atomic.Bool
	// aborted marks a force-close by shutdown or the watchdog so the
	// finale classifies the stream "aborted" rather than "error".
	aborted atomic.Bool
	// release frees the stream's slot (semaphore + wait group), exactly
	// once — callable from the pipeline's own exit, a park, or the
	// watchdog finalizing a wedged stream whose goroutines never exit. A
	// parked stream that resumes takes the reconnect's slot and release.
	release func()
	// ingest/detect mirror the aggregate latency histograms for this
	// stream alone (see metrics); fixed ~1.2 KiB per stream.
	ingest obs.Histogram
	detect obs.Histogram
}

// Server ingests btsnoop streams and emits detection events.
type Server struct {
	cfg     Config
	metrics *metrics
	shards  []*shard

	// outMu serializes whole-buffer flushes from shard writers onto
	// cfg.Output — the only cross-shard synchronization on the event
	// path, held for exactly one Write per flushed batch.
	outMu sync.Mutex

	lns     []net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	acceptWg sync.WaitGroup
	streamWg sync.WaitGroup

	connMu  sync.Mutex
	streams map[uint64]*streamState

	sem      chan struct{}
	nextID   atomic.Uint64
	draining atomic.Bool
	started  bool

	// sessMu guards the session table and tenant admission counts; it is
	// never held while connMu is taken (and vice versa) — the two sides
	// communicate through channels and atomics, not nested locks.
	sessMu   sync.Mutex
	sessions map[string]*sessionEntry
	tenants  map[string]int
	sess     sessionCounters

	// wdStop/wdDone bracket the watchdog goroutine (Config.Watchdog>0).
	wdStop chan struct{}
	wdDone chan struct{}

	// snapStop/snapDone bracket the metrics snapshotter goroutine
	// (running only when a store and MetricsEvery are configured).
	snapStop chan struct{}
	snapDone chan struct{}

	// writeErrOnce gates the one-time log line for HTTP response write
	// failures — a flapping scraper should not be able to spam stderr.
	writeErrOnce sync.Once
}

// shardItem is one unit on a shard's event queue: a chunk of a finding
// burst (burst.evs non-nil), one other event to encode, or a flush
// token (flush non-nil) the writer closes once every event queued
// before it has been flushed to the output.
type shardItem struct {
	ev    Event
	burst findingBurst
	flush chan struct{}
}

// eventQueueChunks is how many burst chunks a shard's event queue
// holds. A burst crosses it as chunks of at most EventBuffer/16
// findings, one item each, and the queue holds EventBuffer/chunk
// items, so it never holds more than EventBuffer finding events however
// full its chunks are, and a dense burst costs one send per chunk, not
// per finding.
const eventQueueChunks = 16

// shardFlushBytes caps how much a shard writer batches into its reused
// encode buffer before flushing mid-drain, bounding both buffer growth
// and how long a burst keeps other shards waiting on the output lock.
const shardFlushBytes = 64 << 10

// shard is one event/metrics shard: a bounded MPSC queue (every stream
// pinned here produces; one writer consumes), the writer's reused
// encode buffer, and the padded counter block this shard's streams bump
// instead of global atomics.
type shard struct {
	srv    *Server
	idx    int
	events chan shardItem
	done   chan struct{} // closed when the writer goroutine exits
	buf    []byte        // writer-owned; reused across batches
	ts     []byte        // writer-owned; the current burst's rendered stamp
	m      shardMetrics

	// eventChunk is the largest finding chunk the events queue takes.
	eventChunk int

	// persist is the shard's bounded queue to its persist goroutine
	// (nil without a store). Same MPSC discipline as events, but the
	// overflow policy is an immediate counted drop — durability is
	// best-effort by design; ingestion never waits on a disk. Its bound
	// is persistQueued, the finding events in it (queuePersist), so a
	// burst takes one item whatever its size and a run of one-finding
	// bursts still has all PersistBuffer slots.
	persist       chan persistItem
	persistQueued atomic.Int64
	pdone         chan struct{} // closed when the persist goroutine exits
}

// New returns an unstarted Server. The shard writer goroutines run from
// New so reader-fed Ingest works without Start; Shutdown retires them.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		metrics:  newMetrics(),
		streams:  make(map[uint64]*streamState),
		sessions: make(map[string]*sessionEntry),
		tenants:  make(map[string]int),
		sem:      make(chan struct{}, cfg.MaxStreams),
		shards:   make([]*shard, cfg.Shards),
	}
	for i := range s.shards {
		sh := &shard{srv: s, idx: i, done: make(chan struct{})}
		sh.eventChunk = max(1, cfg.EventBuffer/eventQueueChunks)
		sh.events = make(chan shardItem, cfg.EventBuffer/sh.eventChunk)
		sh.m.init()
		s.shards[i] = sh
		go sh.writeLoop()
		if cfg.Store != nil {
			sh.persist = make(chan persistItem, cfg.PersistBuffer)
			sh.pdone = make(chan struct{})
			go sh.persistLoop()
		}
	}
	if cfg.Store != nil && cfg.MetricsEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.metricsLoop()
	}
	if cfg.Watchdog > 0 {
		s.wdStop = make(chan struct{})
		s.wdDone = make(chan struct{})
		go s.watchdogLoop()
	}
	return s
}

// shardFor pins a stream id to a shard. The id is sequential, so it is
// mixed through a splitmix64-style finalizer first: consecutive streams
// land on well-spread shards and the pinning is stable for the life of
// the stream (every event a stream emits goes through one queue, which
// is what preserves its event order).
func (s *Server) shardFor(id uint64) *shard {
	x := id
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return s.shards[x%uint64(len(s.shards))]
}

// writeLoop is a shard's single consumer: it drains the queue greedily,
// append-encoding each event — or each finding of a burst chunk — into
// the reused buffer, and flushes the whole buffer to the shared output
// under one short-held lock — once per drained batch (or per
// shardFlushBytes during a burst), not once per event. It exits when
// Shutdown closes the queue.
func (sh *shard) writeLoop() {
	defer close(sh.done)
	for it := range sh.events {
	drain:
		for {
			switch {
			case it.flush != nil:
				// Everything queued before the token is in the buffer;
				// flush so the waiter observes its lines on the output.
				sh.flushBuf()
				close(it.flush)
			case it.burst.evs != nil:
				sh.writeBurst(&it.burst)
			default:
				line, _ := json.Marshal(&it.ev) // strings and integers only: never fails
				sh.buf = append(append(sh.buf, line...), '\n')
				sh.m.events.Add(1)
				if len(sh.buf) >= shardFlushBytes {
					sh.flushBuf()
				}
			}
			select {
			case next, ok := <-sh.events:
				if !ok {
					sh.flushBuf()
					return
				}
				it = next
			default:
				break drain // queue momentarily empty; flush, block again
			}
		}
		sh.flushBuf()
	}
	sh.flushBuf()
}

// writeBurst renders one burst chunk into the buffer, one JSONL line
// per finding, with the stamp formatted once for the chunk.
func (sh *shard) writeBurst(fb *findingBurst) {
	sh.m.events.Add(uint64(len(fb.evs)))
	sh.ts = appendStamp(sh.ts[:0], fb.ts)
	for i := range fb.evs {
		sh.buf = appendFinding(sh.buf, fb.stream, sh.ts, &fb.evs[i])
		sh.buf = append(sh.buf, '\n')
		if len(sh.buf) >= shardFlushBytes {
			sh.flushBuf()
		}
	}
}

// flushBuf writes the shard's buffered lines to the shared output and
// resets the buffer. The output lock is held for exactly the Write.
func (sh *shard) flushBuf() {
	if len(sh.buf) == 0 {
		return
	}
	if hook := sh.srv.cfg.beforeFlush; hook != nil {
		hook(sh.idx)
	}
	sh.srv.outMu.Lock()
	_, _ = sh.srv.cfg.Output.Write(sh.buf)
	sh.srv.outMu.Unlock()
	sh.buf = sh.buf[:0]
}

// enqueue places one item on the shard's queue, waiting at most
// WriteTimeout when the queue is full. Reports whether it was accepted.
// A send on the closed post-Shutdown queue (only reachable from a
// wedged stream's abandoned goroutines) counts as a drop, not a crash.
func (sh *shard) enqueue(it shardItem) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	select {
	case sh.events <- it:
		return true
	default:
	}
	t := time.NewTimer(sh.srv.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case sh.events <- it:
		return true
	case <-t.C:
		return false
	}
}

// Start binds every configured listener and begins accepting streams.
// It returns immediately; ingestion runs on per-connection goroutines.
func (s *Server) Start() error {
	if s.started {
		return fmt.Errorf("sentinel: already started")
	}
	s.started = true
	if s.cfg.TCPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.TCPAddr)
		if err != nil {
			return fmt.Errorf("sentinel: tcp listen: %w", err)
		}
		s.lns = append(s.lns, ln)
		s.acceptLoop(ln, "tcp")
	}
	if s.cfg.UnixAddr != "" {
		// A stale socket file from a crashed daemon would fail the bind.
		_ = os.Remove(s.cfg.UnixAddr)
		ln, err := net.Listen("unix", s.cfg.UnixAddr)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("sentinel: unix listen: %w", err)
		}
		s.lns = append(s.lns, ln)
		s.acceptLoop(ln, "unix")
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			s.closeListeners()
			return fmt.Errorf("sentinel: http listen: %w", err)
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{Handler: s.httpHandler()}
		s.acceptWg.Add(1)
		go func() {
			defer s.acceptWg.Done()
			_ = s.httpSrv.Serve(ln) // returns on Shutdown/Close
		}()
	}
	return nil
}

// TCPAddr returns the bound ingestion TCP address, or "".
func (s *Server) TCPAddr() string { return s.lnAddr("tcp") }

// UnixAddr returns the bound ingestion Unix socket path, or "".
func (s *Server) UnixAddr() string { return s.lnAddr("unix") }

// HTTPAddr returns the bound metrics/health address, or "".
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

func (s *Server) lnAddr(network string) string {
	for _, ln := range s.lns {
		if ln.Addr().Network() == network {
			return ln.Addr().String()
		}
	}
	return ""
}

func (s *Server) closeListeners() {
	for _, ln := range s.lns {
		_ = ln.Close()
	}
}

// acceptLoop runs one listener. Each accepted connection either claims a
// stream slot immediately or is rejected — never queued.
func (s *Server) acceptLoop(ln net.Listener, proto string) {
	s.acceptWg.Add(1)
	go func() {
		defer s.acceptWg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed (Shutdown) or fatal
			}
			label := conn.RemoteAddr().String()
			if label == "" || label == "@" {
				label = proto // anonymous unix peers have no useful address
			}
			select {
			case s.sem <- struct{}{}:
			default:
				s.metrics.streamsRejected.Add(1)
				s.emit(nil, Event{
					Type: EventStreamRejected, Stream: s.nextID.Add(1),
					Proto: proto, Label: label,
					Error: fmt.Sprintf("stream cap %d reached", s.cfg.MaxStreams),
				})
				_ = conn.Close()
				continue
			}
			s.streamWg.Add(1)
			go func() {
				st := &streamState{
					id: s.nextID.Add(1), proto: proto, label: label, conn: conn,
				}
				st.sh = s.shardFor(st.id)
				var once sync.Once
				st.release = func() {
					once.Do(func() { <-s.sem; s.streamWg.Done() })
				}
				// The slot is released through st.release, not a goroutine
				// defer: the watchdog must be able to free a wedged stream's
				// slot while its goroutines are still stuck. The defer here
				// only backstops panics on the teardown path itself.
				defer st.release()
				// Register before reading the handshake: the stream occupies
				// its slot (and shows in streams_active) from accept, even
				// while a slow client dribbles out the handshake.
				s.register(st)
				s.handleConn(st, conn)
			}()
		}
	}()
}

// register makes a stream visible to metrics, Shutdown's force-close,
// and the watchdog. Paired with unregister (finalize does it for
// streams that ran a pipeline).
func (s *Server) register(st *streamState) {
	st.lastActive.Store(time.Now().UnixNano())
	st.sh.m.streamsActive.Add(1)
	s.connMu.Lock()
	s.streams[st.id] = st
	s.connMu.Unlock()
}

// unregister is idempotent: a parked stream left the set at the park,
// and its eventual finalize unregisters it again.
func (s *Server) unregister(st *streamState) {
	s.connMu.Lock()
	registered := s.streams[st.id] == st
	if registered {
		delete(s.streams, st.id)
	}
	s.connMu.Unlock()
	if registered {
		st.sh.m.streamsActive.Add(-1)
	}
}

// Ingest feeds one btsnoop stream from an arbitrary reader through the
// detector, blocking until it ends; the stdin one-shot path and tests
// use it directly, bypassing the listeners. It shares the slot cap with
// socket streams.
func (s *Server) Ingest(proto, label string, r io.Reader) StreamSummary {
	s.sem <- struct{}{}
	// Join the stream group so Shutdown cannot retire the shard writers
	// out from under a reader-fed stream.
	s.streamWg.Add(1)
	st := &streamState{id: s.nextID.Add(1), proto: proto, label: label}
	st.sh = s.shardFor(st.id)
	var once sync.Once
	st.release = func() {
		once.Do(func() { <-s.sem; s.streamWg.Done() })
	}
	defer st.release()
	s.register(st)
	return s.runPipeline(st, r, nil)
}

// ingestRingDepth is how many record batches circulate between a
// stream's scanner and detector goroutines: enough that the scanner can
// decode a block ahead while the detector drains one. The free ring is
// never closed while both run and exactly ingestRingDepth batches
// circulate, so neither side can deadlock: the scanner blocks only when
// the detector holds every batch (backpressure), and the detector
// always recycles before popping the next.
const ingestRingDepth = 4

// ingestBlockBytes is the read size of a live stream's blocks: a socket
// read costs the same syscall whether it returns 64 KiB or 256 KiB, and
// larger blocks mean fuller batches and fewer handoffs per megabyte.
const ingestBlockBytes = 256 << 10

// ingestBlocks is how many blocks a stream's transport can read ahead
// of its scanner, and so the stream's read-ahead bound: ingestBlocks ×
// (ingestBlockBytes + snoop.BlockHeadroom) bytes, ~2.7 MB, allocated as
// the stream needs them. A socket read averages about half a block (a
// client can run at most one socket send buffer ahead), so ten blocks
// keep ~1.3 MB in flight; fewer blocks made the scanner wait on the
// transport, and more gained nothing.
const ingestBlocks = 10

// blockQueue is the ring from a stream's transport goroutine to its
// scanner, as the scanner's block source. Pop returns nil once the ring
// is closed and drained.
type blockQueue struct{ *spsc.Ring[*snoop.Block] }

func (q blockQueue) Next() *snoop.Block {
	b, _ := q.Pop()
	return b
}

// ingestItem is one filled batch in flight from scanner to detector:
// the kept records plus everything the detector side needs to account
// for the full swept span — the scan-completion clock (the anchor for
// ingest and detection latency), the stream offset and cumulative frame
// count after the batch, and the packet-type tally of every record the
// sweep classified (kept or rejected).
type ingestItem struct {
	b        *snoop.RecordBatch
	at       time.Time
	off      int64
	frames   int
	datalink uint32
	tally    packetTally
}

// resumeState is a stream's position between pipelines: its drained
// detector and the capture offset, frame count, datalink and checkpoint
// sequence the detector has consumed up to. A parked stream's st is the
// stream itself, handed to the next pipeline with its id and counters;
// a state restored from a checkpoint has no st.
type resumeState struct {
	st       *streamState
	det      *forensics.Detector
	off      int64
	frames   int
	datalink uint32
	ckptSeq  uint64
}

// runPipeline is the per-stream core, a three-stage pipeline. The
// transport goroutine owns the input — for a socket, the session
// framing, read deadlines, acks and the cut classification of
// sessionReader — and reads it into the blocks of a fixed per-stream
// pool, ingestBlocks deep, handing each filled block to the scanner
// through an SPSC ring; so the next socket read overlaps the sweep of
// the last one instead of taking turns with it. The scanner goroutine
// owns the BatchScanner: it decodes each block in place, in one sweep
// that classifies every record in it — the keep callback tallies packet
// types and applies the forensics prefilter, so the ~97% of records the
// reducer ignores are never materialized — then hands the kept records
// to the detector through a second pair of rings. A batch's records
// alias its block, which goes back to the pool when the detector
// recycles the batch. The detector side (this goroutine) owns the
// Detector and all counters: records/bytes/packet tallies are bumped
// once per batch (covering the full swept span, rejected records
// included) into the stream's shard block — streams on different shards
// never touch the same cache lines — and findings are drained and
// emitted the moment the completing batch is pushed. Stage latency
// (scan, push, drain, emit) is observed per batch rather than sampled
// per record — the batch amortizes the clock reads that used to need a
// sampling stride.
//
// Acks count bytes the transport received, which can run up to the
// pool ahead of the bytes scanned; a resume starts from the detector's
// position, never from an ack.
//
// Liveness: ScanBatchKeep returns as soon as the sweep advances, even
// when every record in the block was rejected, so counters track a
// trickling phone log record by record and a one-record batch flows at
// one-record latency. A wedged event consumer still costs events, never
// detection: emit drops on its shard's write deadline, and the scanner
// and transport at worst idle until the detector recycles a batch. When
// the scanner stops before the transport has ended its input (corrupt
// framing, a detector panic), the pipeline wakes the transport — the
// pool and ring close, and a socket is closed under a pending read — so
// no goroutine outlives its stream. A plain reader's pending Read is
// waited for.
func (s *Server) runPipeline(st *streamState, r io.Reader, res *resumeState) StreamSummary {
	sm := &st.sh.m
	// A parked stream resuming in this process already started.
	warm := res != nil && res.st != nil
	if !warm {
		sm.streamsTotal.Add(1)
	}
	st.lastActive.Store(time.Now().UnixNano())

	pool := snoop.NewBlockPool(ingestBlocks, ingestBlockBytes)
	blocks := spsc.New[*snoop.Block](ingestBlocks)
	sc := snoop.NewBlockScanner(blockQueue{blocks})
	var det *forensics.Detector
	var prevOff int64  // last batch offset the detector consumed
	var prevFrames int // last batch frame count the detector consumed
	var ckptSeq uint64 // last checkpoint sequence written for this session
	var lastCkpt int64 // capture offset of the last checkpoint
	if res != nil {
		// Resuming: the scanner starts mid-capture at the detector's
		// position (a stream cut before its first batch starts over at
		// the file header), the detector already holds the state, and the
		// stream's cumulative counters pick up from there — only the shard
		// counters stay this-process-only deltas.
		if res.off > 0 {
			sc = snoop.ResumeBlockScanner(blockQueue{blocks}, res.off, res.frames, res.datalink)
		}
		det = res.det
		prevOff, prevFrames, ckptSeq, lastCkpt = res.off, res.frames, res.ckptSeq, res.off
		st.bytes.Store(res.off)
		st.records.Store(uint64(res.frames))
		st.findings.Store(det.Findings())
	} else {
		det = forensics.NewLiveDetector()
	}

	if !warm {
		start := Event{Type: EventStreamStart, Stream: st.id, Proto: st.proto, Label: st.label, Session: st.session}
		if res != nil {
			start.Offset = res.off
		}
		s.emit(st, start)
	}

	filled := spsc.New[ingestItem](ingestRingDepth)
	free := spsc.New[*snoop.RecordBatch](ingestRingDepth)
	for i := 0; i < ingestRingDepth; i++ {
		free.TryPush(&snoop.RecordBatch{})
	}

	// The transport: one Fill per pool block, until the input ends (the
	// block carrying the read error is the last) or the pool or ring
	// closes under it. ended is set before that last push, so the
	// teardown below knows the transport needs no wake-up. tPanic is
	// read after transportDone.Wait.
	var tPanic any
	var ended atomic.Bool
	var transportDone sync.WaitGroup
	transportDone.Add(1)
	go func() {
		defer transportDone.Done()
		defer blocks.Close()
		defer func() {
			if p := recover(); p != nil {
				tPanic = p
			}
		}()
		for {
			blk := pool.Get()
			if blk == nil {
				return
			}
			err := blk.Fill(r)
			if err != nil {
				ended.Store(true)
			}
			if !blocks.Push(blk) || err != nil {
				return
			}
		}
	}()

	// residual carries what the scanner's final, failed scan call swept
	// before the stream ended (records ahead of a corrupt header, say):
	// written before scanDone.Done, read after Wait. sPanic rides the
	// same ordering.
	var residual struct {
		frames int
		tally  packetTally
	}
	var sPanic, detPanic any
	var scanDone sync.WaitGroup
	scanDone.Add(1)
	go func() {
		defer scanDone.Done()
		// Closing filled (after the final push) is what hands the stream
		// end to the detector loop; scanDone.Wait below then orders the
		// scanner's terminal Err/Offset before this goroutine reads them.
		defer filled.Close()
		// The recover defer runs before the two above (LIFO), so a panic
		// anywhere in the scan loop still closes the ring and releases the
		// waiter — the stream dies alone, the daemon does not.
		defer func() {
			if p := recover(); p != nil {
				sPanic = p
			}
		}()
		var tally packetTally
		keep := func(raw []byte) bool {
			tally.count(raw)
			return forensics.RelevantRecord(raw)
		}
		for {
			b, ok := free.Pop()
			if !ok {
				return
			}
			tPre := time.Now()
			if !sc.ScanBatchKeep(b, keep) {
				residual.frames, residual.tally = sc.Frame(), tally
				return
			}
			now := time.Now()
			sm.stageScan.Observe(now.Sub(tPre))
			st.lastActive.Store(now.UnixNano())
			filled.Push(ingestItem{b: b, at: now, off: sc.Offset(), frames: sc.Frame(),
				datalink: sc.Datalink(), tally: tally})
			tally = packetTally{}
		}
	}()

	// The detector loop runs in a recover bracket of its own: a panic in
	// the detector (or a test hook) is contained to this stream.
	func() {
		defer func() {
			if p := recover(); p != nil {
				detPanic = p
			}
		}()
		for {
			it, ok := filled.Pop()
			if !ok {
				return
			}
			st.beat.Start()
			if hook := s.cfg.beforeBatch; hook != nil {
				hook(st.id)
			}
			det.PushKept(it.b.Frames, it.b.Records)
			tPush := time.Now()
			sm.stagePush.Observe(tPush.Sub(it.at))
			n := uint64(it.frames - prevFrames)
			prevFrames = it.frames
			st.records.Add(n)
			sm.records.Add(n)
			st.bytes.Store(it.off)
			sm.bytes.Add(uint64(it.off - prevOff))
			prevOff = it.off
			sm.addPacketTally(it.tally)
			evs := det.Drain()
			tDrain := time.Now()
			sm.stageDrain.Observe(tDrain.Sub(tPush))
			if len(evs) > 0 {
				s.emitFindings(st, evs)
				tEnd := time.Now()
				sm.stageEmit.Observe(tEnd.Sub(tDrain))
				// Detection latency: the completing batch was scanned at
				// it.at; its findings are on the event queue at tEnd.
				d := tEnd.Sub(it.at)
				sm.detect.ObserveN(d, uint64(len(evs)))
				st.detect.ObserveN(d, uint64(len(evs)))
				sm.ingest.Observe(tEnd.Sub(it.at))
				st.ingest.Observe(tEnd.Sub(it.at))
			} else {
				d := tDrain.Sub(it.at)
				sm.ingest.Observe(d)
				st.ingest.Observe(d)
			}
			// Periodic checkpoint: the detector is drained (just above), so
			// the snapshot is legal; non-blocking — a full persist queue
			// skips this interval rather than stalling detection.
			if st.session != "" && st.sh.persist != nil && s.cfg.CheckpointEvery > 0 &&
				it.off-lastCkpt >= s.cfg.CheckpointEvery {
				s.queueCheckpoint(st, det, it.off, it.frames, it.datalink, &ckptSeq, false)
				lastCkpt = it.off
			}
			st.beat.Stop()
			// The block goes back to the transport's pool; depth batches
			// circulate and free is never closed, so recycling cannot fail.
			it.b.Release()
			free.TryPush(it.b)
		}
	}()
	if detPanic != nil {
		// The detector died mid-stream; the scanner may be blocked on
		// free.Pop, on filled.Push, or on the block ring, and the
		// transport on the pool or the input. Close the free ring, kill
		// the input (the transport's last block then ends the scan), and
		// drain the filled ring until the scanner's defer closes it; the
		// teardown below stops the transport.
		free.Close()
		s.connMu.Lock()
		if st.conn != nil {
			_ = st.conn.Close()
		}
		s.connMu.Unlock()
		for {
			if _, ok := filled.Pop(); !ok {
				break
			}
		}
	}
	scanDone.Wait()
	// The scanner is done. A transport that has not ended its input is
	// woken: the closed pool ends a wait for a block, the closed ring a
	// push, and a closed socket a pending read.
	pool.Close()
	blocks.Close()
	if sr, ok := r.(*sessionReader); ok && !ended.Load() {
		_ = sr.conn.Close()
	}
	transportDone.Wait()
	if residual.frames > prevFrames {
		n := uint64(residual.frames - prevFrames)
		st.records.Add(n)
		sm.records.Add(n)
		sm.addPacketTally(residual.tally)
	}

	err := sc.Err()
	records := sc.Frame()
	offset := sc.Offset()
	var status string
	endErr := err
	switch {
	case detPanic != nil:
		// The detector's position, not the scanner's: records past prevOff
		// were swept but never analyzed.
		status = StatusPanic
		records, offset = prevFrames, prevOff
		endErr = fmt.Errorf("panic: %v", detPanic)
	case sPanic != nil:
		status = StatusPanic
		endErr = fmt.Errorf("panic: %v", sPanic)
	case tPanic != nil:
		status = StatusPanic
		endErr = fmt.Errorf("panic: %v", tPanic)
	case err != nil && st.aborted.Load():
		// Force-closed by shutdown after the drain grace: the raw
		// transport error (use of closed connection) says "error", but the
		// operator needs to see "aborted, checkpointed, resumable".
		status = StatusAborted
		if !errors.Is(err, ErrAborted) {
			endErr = fmt.Errorf("%w: %v", ErrAborted, err)
		}
	default:
		status = ClassifyStreamError(err)
	}

	pos := &resumeState{st: st, det: det, off: prevOff, frames: prevFrames,
		datalink: sc.Datalink(), ckptSeq: ckptSeq}
	if status == StatusTruncated && errors.Is(endErr, errSessionCut) {
		if s.parkStream(pos) {
			// Not an end: the session entry holds the stream for a reconnect.
			return StreamSummary{ID: st.id, Proto: st.proto, Label: st.label}
		}
		if s.draining.Load() {
			status, endErr = StatusAborted, fmt.Errorf("%w: %v", ErrAborted, endErr)
		}
	}
	return s.endStream(pos, records, offset, status, endErr)
}

// endStream ends a stream for good; records and offset are what its
// summary reports, pos is its detector's position. A session stream
// first settles its checkpoints: an aborted one is checkpointed at pos
// so a restarted daemon resumes it, and any other end with checkpoints
// on disk gets a tombstone so a restart does not resurrect it. Skipped
// if the watchdog already finalized the stream — a wedged detector's
// state is suspect, so the last periodic checkpoint stays the durable
// resume point.
func (s *Server) endStream(pos *resumeState, records int, offset int64, status string, err error) StreamSummary {
	st := pos.st
	if st.session != "" && st.sh.persist != nil && !st.finalized.Load() {
		switch {
		case status == StatusAborted:
			s.queueCheckpoint(st, pos.det, pos.off, pos.frames, pos.datalink, &pos.ckptSeq, true)
		case pos.ckptSeq > 0:
			d := &ckptDoc{Session: st.session, Tenant: st.tenant, Stream: st.id,
				Seq: pos.ckptSeq + 1, Offset: pos.off, Frames: pos.frames,
				Datalink: pos.datalink, Done: true}
			st.sh.tryPersist(persistItem{ckpt: d, ts: time.Now().UnixNano()}, true)
		}
	}
	sum := StreamSummary{
		ID: st.id, Proto: st.proto, Label: st.label,
		Records:  records,
		Bytes:    offset,
		Findings: pos.det.Findings(),
		Status:   status,
		Offset:   offset,
		Err:      err,
	}
	end := Event{
		Type: EventStreamEnd, Stream: st.id, Proto: st.proto, Label: st.label,
		Session: st.session, Status: status, Offset: sum.Offset,
		Records: sum.Records, Bytes: sum.Bytes, Findings: sum.Findings,
		EventsDropped: st.dropped.Load(),
	}
	if err != nil {
		end.Error = err.Error()
	}
	s.finalize(st, &sum, end)
	return sum
}

// finalize is the once-only teardown every stream end funnels through:
// the natural pipeline finale and the watchdog race here, and the CAS
// picks exactly one winner to emit the stream-end line, count the
// status, drop the session entry, unregister, and release the slot. The
// loser (a wedged pipeline that eventually unwedges, or a finale racing
// the watchdog) skips everything — its late events are dropped by the
// dead-stream guard in emit and emitFindings.
func (s *Server) finalize(st *streamState, sum *StreamSummary, end Event) bool {
	if !st.finalized.CompareAndSwap(false, true) {
		return false
	}
	st.dead.Store(true)
	st.sh.m.countEnd(sum.Status)
	s.emit(st, end)
	// Flush before OnStreamEnd so observers (tests, benchmarks) read a
	// complete JSONL stream; the dropped total then includes an end event
	// the deadline may have eaten.
	s.flushEvents(st.sh)
	sum.EventsDropped = st.dropped.Load()
	if st.ent != nil {
		s.sessMu.Lock()
		s.dropSessionLocked(st.ent)
		s.sessMu.Unlock()
	}
	s.unregister(st)
	s.connMu.Lock()
	if st.conn != nil {
		_ = st.conn.Close()
		st.conn = nil
	}
	s.connMu.Unlock()
	if st.release != nil {
		st.release()
	}
	if s.cfg.OnStreamEnd != nil {
		s.cfg.OnStreamEnd(*sum)
	}
	return true
}

// emit queues one JSONL event on the stream's shard under the per-write
// deadline. st (nil for rejection events, which are pinned by event
// stream id) receives the per-stream dropped count when the deadline
// expires. The event itself is encoded by the shard writer, off the
// ingest hot path. Drained findings take emitFindings instead.
//
// When timestamps are on (explicitly, or implied by a store) the event
// is stamped here — once, so the JSONL line and the persisted frame
// carry the same instant. Stream-end events additionally fan out to the
// shard's persist queue; a full queue is an immediate counted drop,
// never a stall (the JSONL line still goes out — the durable copy is
// the best-effort one).
func (s *Server) emit(st *streamState, ev Event) {
	// A finalized stream's abandoned goroutines (wedged detector that
	// later unwedges) may still try to emit; everything but the end line
	// the finalizer itself wrote is dropped silently.
	if st != nil && st.dead.Load() && ev.Type != EventStreamEnd {
		return
	}
	ts := s.stamp()
	ev.TS = string(appendStamp(nil, ts))
	sh := s.shardFor(ev.Stream)
	if st != nil {
		sh = st.sh
	}
	if !sh.enqueue(shardItem{ev: ev}) {
		sh.m.eventsDropped.Add(1)
		if st != nil {
			st.dropped.Add(1)
		}
	}
	if sh.persist != nil && ev.Type == EventStreamEnd {
		sh.queuePersist(persistItem{ev: ev, ts: ts})
	}
}

// emitFindings is the one emit path for findings: it hands a burst
// drained from st's detector to st's shard. The counters move once per
// burst; the findings themselves cross to the shard writer, as chunks
// of the drained slice rendered there, and to the persist goroutine, as
// one item stored there as records — the detector never touches the
// slice again and builds no Event and formats no string. A chunk that
// misses the write deadline counts one drop per finding in it; so does
// each finding the persist queue has no room for. All findings of the
// burst share one emission stamp.
func (s *Server) emitFindings(st *streamState, evs []forensics.Event) {
	sh := st.sh
	st.findings.Add(uint64(len(evs)))
	sh.m.countFindings(evs)
	// The dead-stream guard, as in emit.
	if st.dead.Load() {
		return
	}
	fb := findingBurst{stream: st.id, ts: s.stamp()}
	for rest := evs; len(rest) > 0; {
		n := min(len(rest), sh.eventChunk)
		fb.evs, rest = rest[:n:n], rest[n:]
		if !sh.enqueue(shardItem{burst: fb}) {
			sh.m.eventsDropped.Add(uint64(n))
			st.dropped.Add(uint64(n))
		}
	}
	if sh.persist == nil {
		return
	}
	// The persist queue takes the findings it has room for, in order,
	// as one item; the rest drop, as they would one at a time.
	room := max(0, s.cfg.PersistBuffer-int(sh.persistQueued.Load()))
	if n := min(len(evs), room); n > 0 {
		fb.evs = evs[:n:n]
		sh.queuePersist(persistItem{burst: fb})
	}
	if len(evs) > room {
		sh.m.persistDropped.Add(uint64(len(evs) - room))
	}
}

// stamp reads the wall clock once and returns it as unix nanoseconds,
// or 0 when timestamps are off. Rendering is left to the consumers:
// the shard writer formats a finding burst's stamp once per chunk with
// appendStamp, and the persist goroutine stores it as the frames'
// timestamp, which /query formats the same way — so the detector
// goroutine never formats a time, and a JSONL line and its persisted
// frame render the same instant.
func (s *Server) stamp() int64 {
	if !s.cfg.Timestamps && s.cfg.Store == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// flushEvents waits (bounded by WriteTimeout) until every event queued
// on the shard so far has reached cfg.Output, so OnStreamEnd observers
// read a complete event stream. Reports whether the flush completed.
func (s *Server) flushEvents(sh *shard) bool {
	done := make(chan struct{})
	if !sh.enqueue(shardItem{flush: done}) {
		return false
	}
	t := time.NewTimer(s.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// Shutdown drains the server: stop accepting, abort parked and restored
// sessions (a live pipeline cut from now on ends "aborted"), let in-flight
// streams finish until ctx expires, then force-close whatever remains.
// When Shutdown returns the store is no longer touched — its owner can
// close it. Safe to call once; returns ctx.Err() if the drain deadline
// forced closes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.closeListeners()
	if s.httpSrv != nil {
		_ = s.httpSrv.Shutdown(ctx)
	}
	// End every parked stream "aborted" (after a final checkpoint) and
	// drop restored entries — their checkpoints are already durable, a
	// restarted daemon rebuilds them.
	s.abortSessions()

	done := make(chan struct{})
	go func() {
		s.streamWg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		// Force the stragglers: closing a connection makes its scanner
		// return a transport error, and the aborted mark turns the raw
		// "error" classification into "aborted" (checkpointed, resumable).
		s.connMu.Lock()
		for _, st := range s.streams {
			st.aborted.Store(true)
			if st.conn != nil {
				_ = st.conn.Close()
			}
		}
		s.connMu.Unlock()
		<-done
	}
	s.acceptWg.Wait()
	if s.wdStop != nil {
		close(s.wdStop)
		<-s.wdDone
	}
	// Persist queues retire before the event queues close: the persist
	// loop enqueues checkpoint events onto the event queues (still open
	// here), so that send is always legal; and the waits are
	// unconditional — persistLoop never blocks on anything unbounded
	// once the emitters are gone, and a Shutdown return must guarantee
	// the store is quiescent (the caller closes it next).
	if s.cfg.Store != nil {
		for _, sh := range s.shards {
			if sh.persist != nil {
				close(sh.persist)
			}
		}
		for _, sh := range s.shards {
			if sh.pdone != nil {
				<-sh.pdone
			}
		}
		if s.snapStop != nil {
			close(s.snapStop)
			<-s.snapDone
		}
	}
	// All emitters are gone; retire the shard writers. A consumer wedged
	// in Write keeps a writer alive — bound the wait (on a fresh short
	// timeout if ctx already expired forcing the closes above) instead of
	// hanging Shutdown on it.
	for _, sh := range s.shards {
		close(sh.events)
	}
	evCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		evCtx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
	}
	for _, sh := range s.shards {
		select {
		case <-sh.done:
		case <-evCtx.Done():
			if err == nil {
				err = evCtx.Err()
			}
		}
	}
	if s.cfg.UnixAddr != "" {
		_ = os.Remove(s.cfg.UnixAddr)
	}
	return err
}
