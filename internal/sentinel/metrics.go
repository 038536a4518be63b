package sentinel

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/obs"
)

// metrics holds the daemon-wide cold state: the start clock and the
// accept-path rejection counter. Everything hot — records, bytes,
// packet tallies, event counts, latency histograms, findings-by-kind —
// lives in the per-shard shardMetrics blocks (see shard) so concurrent
// streams on different shards never contend on a counter or bounce a
// shared cache line; Snapshot folds the shards back into one
// operator-facing view per scrape.
type metrics struct {
	start time.Time

	// streamsRejected is bumped on the accept path before a stream has
	// an id (and therefore a shard); it is cold by definition — a flood
	// of rejections is bounded by accept throughput, not ingest.
	streamsRejected atomic.Uint64
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// pad is one cache line of padding. shardMetrics interleaves these
// around its hot counter block so two shards' counters never share a
// line even when the shard structs are allocated adjacently — the
// whole point of sharding the metrics is that stream A's record counter
// bump does not invalidate the line stream B is bumping.
type pad [64]byte

// shardMetrics is one shard's counter block: everything the ingest hot
// path bumps, owned by the streams pinned to this shard. Counters are
// atomics (several streams can share a shard), histograms are
// internal/obs lock-free instruments, and the low-rate maps (findings
// by kind, stream ends by status) take the shard's mutex — contended
// only by the shard's own streams.
type shardMetrics struct {
	_ pad

	streamsActive atomic.Int64
	streamsTotal  atomic.Uint64
	records       atomic.Uint64
	bytes         atomic.Uint64
	events        atomic.Uint64
	eventsDropped atomic.Uint64

	pktCommand atomic.Uint64
	pktEvent   atomic.Uint64
	pktACL     atomic.Uint64
	pktSCO     atomic.Uint64
	pktOther   atomic.Uint64

	// persistAppended/persistDropped account the shard's durable event
	// path: appended is bumped by the persist goroutine per successful
	// store append, dropped by emit when the bounded persist queue is
	// full (and by the persist goroutine on store errors). dropped
	// climbing is the disk-can't-keep-up signal; ingestion is unaffected
	// by construction.
	persistAppended atomic.Uint64
	persistDropped  atomic.Uint64

	_ pad

	// ingest is per-batch processing latency (scan completion through
	// push, drain, and any finding emission). detect is per-finding
	// detection latency (completing batch scanned to finding event
	// queued), observed for every finding.
	ingest obs.Histogram
	detect obs.Histogram
	// Stage timers, observed once per batch: scan (byte wait + block
	// decode), push (detector state machine), drain (finding
	// collection), emit (handing the drained burst to the shard and
	// persist queues; timed whenever findings are emitted).
	stageScan  obs.Histogram
	stagePush  obs.Histogram
	stageDrain obs.Histogram
	stageEmit  obs.Histogram

	mu           sync.Mutex
	findings     map[string]uint64
	endsByStatus map[string]uint64
}

func (m *shardMetrics) init() {
	m.findings = make(map[string]uint64)
	m.endsByStatus = make(map[string]uint64)
}

// packetTally is one batch's worth of per-type packet counts. The
// scanner goroutine accumulates it lock-free inside the scan sweep's
// keep callback (the only pass that sees rejected records' payloads)
// and ships it through the ring with the batch; the detector loop folds
// it into the stream's shard block, at most one Add per type per batch
// instead of one per record.
type packetTally struct {
	cmd, evt, acl, sco, other uint64
}

// count classifies one raw record payload by its H4 indicator octet.
func (t *packetTally) count(raw []byte) {
	pt, ok := hci.PeekPacketType(raw)
	if !ok {
		t.other++
		return
	}
	switch pt {
	case hci.PTCommand:
		t.cmd++
	case hci.PTEvent:
		t.evt++
	case hci.PTACLData:
		t.acl++
	case hci.PTSCOData:
		t.sco++
	}
}

// addPacketTally folds a batch tally into the shard's counters.
func (m *shardMetrics) addPacketTally(t packetTally) {
	if t.cmd > 0 {
		m.pktCommand.Add(t.cmd)
	}
	if t.evt > 0 {
		m.pktEvent.Add(t.evt)
	}
	if t.acl > 0 {
		m.pktACL.Add(t.acl)
	}
	if t.sco > 0 {
		m.pktSCO.Add(t.sco)
	}
	if t.other > 0 {
		m.pktOther.Add(t.other)
	}
}

// countFindings counts a drained burst by kind under one lock.
func (m *shardMetrics) countFindings(evs []forensics.Event) {
	m.mu.Lock()
	for i := range evs {
		m.findings[evs[i].Finding.Kind]++
	}
	m.mu.Unlock()
}

func (m *shardMetrics) countEnd(status string) {
	m.mu.Lock()
	m.endsByStatus[status]++
	m.mu.Unlock()
}

// StreamMetrics is the live per-stream row of a metrics snapshot.
type StreamMetrics struct {
	ID    uint64 `json:"id"`
	Proto string `json:"proto"`
	Label string `json:"label"`
	// Shard is the event/metrics shard the stream is pinned to.
	Shard    int    `json:"shard"`
	Records  uint64 `json:"records"`
	Bytes    int64  `json:"bytes"`
	Findings uint64 `json:"findings"`
	// LagMS is how long ago the stream last delivered a record — the
	// operator's staleness signal for a client that connected and hung.
	LagMS int64 `json:"lag_ms"`
	// IngestLatency is this stream's sampled per-record processing
	// latency; DetectLatency its per-finding detection latency.
	IngestLatency obs.Snapshot `json:"ingest_latency"`
	DetectLatency obs.Snapshot `json:"detect_latency"`
}

// ShardMetricsSnapshot is one shard's row in the additive "shards"
// section of /metrics: the shard's own contribution to the folded
// totals, so an operator can spot a hot or wedged shard (events_dropped
// climbing on one row) without per-stream spelunking.
type ShardMetricsSnapshot struct {
	Shard         int          `json:"shard"`
	StreamsActive int64        `json:"streams_active"`
	StreamsTotal  uint64       `json:"streams_total"`
	Records       uint64       `json:"records"`
	Bytes         uint64       `json:"bytes"`
	EventsEmitted uint64       `json:"events_emitted"`
	EventsDropped uint64       `json:"events_dropped"`
	IngestLatency obs.Snapshot `json:"ingest_latency"`
}

// PersistSnapshot is the "persist" section of /metrics: the durable
// event path's fold across shards.
type PersistSnapshot struct {
	Appended uint64 `json:"appended"`
	Dropped  uint64 `json:"dropped"`
}

// SessionsSnapshot is the "sessions" section of /metrics: the resume
// protocol's lifecycle accounting. Parked is the current gauge;
// ParkedTotal/Resumed/Expired are cumulative; Checkpoints counts
// detector checkpoints made durable; Restored counts sessions rebuilt
// from the store at startup.
type SessionsSnapshot struct {
	Parked      int64  `json:"parked"`
	ParkedTotal uint64 `json:"parked_total"`
	Resumed     uint64 `json:"resumed"`
	Expired     uint64 `json:"expired"`
	Checkpoints uint64 `json:"checkpoints"`
	Restored    uint64 `json:"restored"`
}

// MetricsSnapshot is the JSON document served at /metrics.
type MetricsSnapshot struct {
	UptimeSec float64 `json:"uptime_sec"`

	StreamsActive   int64  `json:"streams_active"`
	StreamsTotal    uint64 `json:"streams_total"`
	StreamsRejected uint64 `json:"streams_rejected"`
	MaxStreams      int    `json:"max_streams"`

	Records       uint64  `json:"records"`
	Bytes         uint64  `json:"bytes"`
	BytesPerSec   float64 `json:"bytes_per_sec"`
	RecordsPerSec float64 `json:"records_per_sec"`
	EventsEmitted uint64  `json:"events_emitted"`
	// EventsDropped counts JSONL events lost to the per-write deadline —
	// the operator's signal that the event consumer is stalled.
	EventsDropped uint64 `json:"events_dropped"`

	// Persist accounts the durable event path (zero when no store is
	// configured): appended = events written to the embedded store,
	// dropped = events lost to a full persist queue or a store error.
	Persist PersistSnapshot `json:"persist"`

	// Sessions accounts the resume protocol's lifecycle (all zero when no
	// client uses session framing).
	Sessions SessionsSnapshot `json:"sessions"`

	Packets      map[string]uint64 `json:"packets"`
	FindingsKind map[string]uint64 `json:"findings_by_kind"`
	StreamEnds   map[string]uint64 `json:"stream_ends_by_status"`

	// IngestLatency is the aggregate sampled per-record processing
	// latency across all streams (scan completion through push, drain,
	// and finding emission); DetectLatency is the aggregate per-finding
	// detection latency (completing record read to finding event
	// queued). Quantiles in microseconds; see internal/obs. Both are
	// folds of the per-shard histograms (obs.Fold).
	IngestLatency obs.Snapshot `json:"ingest_latency"`
	DetectLatency obs.Snapshot `json:"detect_latency"`
	// Stages breaks the ingest hot path into its timed stages: scan,
	// push, drain, emit.
	Stages map[string]obs.Snapshot `json:"stages"`

	// Shards is the per-shard breakdown of the totals above (additive
	// section; the folded fields keep their pre-shard meaning).
	Shards []ShardMetricsSnapshot `json:"shards"`

	Streams []StreamMetrics `json:"streams"`
}

// Snapshot assembles a point-in-time view of the daemon's counters and
// every active stream, folding the per-shard counter blocks and
// histograms into the same aggregate fields the single-writer daemon
// served, plus the per-shard breakdown.
func (s *Server) Snapshot() MetricsSnapshot {
	up := time.Since(s.metrics.start).Seconds()
	snap := MetricsSnapshot{
		UptimeSec:       up,
		StreamsRejected: s.metrics.streamsRejected.Load(),
		MaxStreams:      s.cfg.MaxStreams,
		Packets:         map[string]uint64{"command": 0, "event": 0, "acl": 0, "sco": 0, "other": 0},
		FindingsKind:    map[string]uint64{},
		StreamEnds:      map[string]uint64{},
		Sessions: SessionsSnapshot{
			Parked:      s.sess.parked.Load(),
			ParkedTotal: s.sess.parkedTotal.Load(),
			Resumed:     s.sess.resumed.Load(),
			Expired:     s.sess.expired.Load(),
			Checkpoints: s.sess.checkpoints.Load(),
			Restored:    s.sess.restored.Load(),
		},
	}
	ingests := make([]*obs.Histogram, 0, len(s.shards))
	detects := make([]*obs.Histogram, 0, len(s.shards))
	scans := make([]*obs.Histogram, 0, len(s.shards))
	pushes := make([]*obs.Histogram, 0, len(s.shards))
	drains := make([]*obs.Histogram, 0, len(s.shards))
	emits := make([]*obs.Histogram, 0, len(s.shards))
	for _, sh := range s.shards {
		m := &sh.m
		snap.StreamsActive += m.streamsActive.Load()
		snap.StreamsTotal += m.streamsTotal.Load()
		snap.Records += m.records.Load()
		snap.Bytes += m.bytes.Load()
		snap.EventsEmitted += m.events.Load()
		snap.EventsDropped += m.eventsDropped.Load()
		snap.Persist.Appended += m.persistAppended.Load()
		snap.Persist.Dropped += m.persistDropped.Load()
		snap.Packets["command"] += m.pktCommand.Load()
		snap.Packets["event"] += m.pktEvent.Load()
		snap.Packets["acl"] += m.pktACL.Load()
		snap.Packets["sco"] += m.pktSCO.Load()
		snap.Packets["other"] += m.pktOther.Load()
		m.mu.Lock()
		for k, v := range m.findings {
			snap.FindingsKind[k] += v
		}
		for k, v := range m.endsByStatus {
			snap.StreamEnds[k] += v
		}
		m.mu.Unlock()
		ingests = append(ingests, &m.ingest)
		detects = append(detects, &m.detect)
		scans = append(scans, &m.stageScan)
		pushes = append(pushes, &m.stagePush)
		drains = append(drains, &m.stageDrain)
		emits = append(emits, &m.stageEmit)
		snap.Shards = append(snap.Shards, ShardMetricsSnapshot{
			Shard:         sh.idx,
			StreamsActive: m.streamsActive.Load(),
			StreamsTotal:  m.streamsTotal.Load(),
			Records:       m.records.Load(),
			Bytes:         m.bytes.Load(),
			EventsEmitted: m.events.Load(),
			EventsDropped: m.eventsDropped.Load(),
			IngestLatency: m.ingest.Snapshot(),
		})
	}
	snap.IngestLatency = obs.Fold(ingests...)
	snap.DetectLatency = obs.Fold(detects...)
	snap.Stages = map[string]obs.Snapshot{
		"scan":  obs.Fold(scans...),
		"push":  obs.Fold(pushes...),
		"drain": obs.Fold(drains...),
		"emit":  obs.Fold(emits...),
	}
	if up > 0 {
		snap.BytesPerSec = float64(snap.Bytes) / up
		snap.RecordsPerSec = float64(snap.Records) / up
	}

	now := time.Now()
	s.connMu.Lock()
	for _, st := range s.streams {
		snap.Streams = append(snap.Streams, StreamMetrics{
			ID:            st.id,
			Proto:         st.proto,
			Label:         st.label,
			Shard:         st.sh.idx,
			Records:       st.records.Load(),
			Bytes:         st.bytes.Load(),
			Findings:      st.findings.Load(),
			LagMS:         now.Sub(time.Unix(0, st.lastActive.Load())).Milliseconds(),
			IngestLatency: st.ingest.Snapshot(),
			DetectLatency: st.detect.Snapshot(),
		})
	}
	s.connMu.Unlock()
	sort.Slice(snap.Streams, func(i, j int) bool { return snap.Streams[i].ID < snap.Streams[j].ID })
	return snap
}

// httpHandler serves /metrics (JSON snapshot), /healthz (200 while
// serving, 503 once draining — the load balancer's cue to stop
// routing), and — when a store is configured — /query over the
// persisted series. With Config.EnablePprof it also mounts the standard
// /debug/pprof profiling mux, so an operator can grab a CPU or heap
// profile from a live daemon without redeploying.
//
// Every point-in-time endpoint sets Cache-Control: no-store (a cached
// health probe or metrics scrape is worse than none), and a response
// write failure is logged once per server rather than silently eaten —
// one line to say scrapes are failing, not one per flap.
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		s.noteWriteErr("/metrics", enc.Encode(s.Snapshot()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		_, err := w.Write([]byte("ok\n"))
		s.noteWriteErr("/healthz", err)
	})
	mux.HandleFunc("/query", s.handleQuery)
	return mux
}

// noteWriteErr logs a response-write failure, once per server lifetime.
func (s *Server) noteWriteErr(path string, err error) {
	if err == nil {
		return
	}
	s.writeErrOnce.Do(func() {
		log.Printf("sentinel: %s response write failed: %v (further write errors suppressed)", path, err)
	})
}
