package sentinel

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/forensics"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// Store series classes. Findings persist as fixed binary records (see
// record.go) keyed by stream id and rendered to their JSONL bytes when
// /query reads them; stream-end events persist as their exact JSONL
// bytes, keyed the same way; the histogram series holds interval-delta
// metrics snapshots keyed 0 (daemon-global); the checkpoint series holds
// detector checkpoints keyed by a hash of the session id (sessionKey).
const (
	SeriesFindings = "findings"
	SeriesEnds     = "ends"
	SeriesHist     = "hist"
	SeriesCkpt     = "ckpt"
)

// ckptDoc is the stored form of one detector checkpoint: enough to
// rebuild the session's pipeline after a daemon restart — identity
// (session, tenant, stream id), position (capture offset, frame count,
// datalink), a per-session monotonic sequence (highest wins at
// recovery), and the forensics.SnapshotState blob. A Done doc is a
// tombstone: the stream finished (or its grace expired) and recovery
// must not resurrect it; tombstones carry no state.
type ckptDoc struct {
	Session  string `json:"session"`
	Tenant   string `json:"tenant,omitempty"`
	Stream   uint64 `json:"stream"`
	Seq      uint64 `json:"seq"`
	Offset   int64  `json:"offset"`
	Frames   int    `json:"frames"`
	Datalink uint32 `json:"datalink"`
	Done     bool   `json:"done,omitempty"`
	State    []byte `json:"state,omitempty"`
}

// ckptFrameMagic marks the binary checkpoint framing: a JSON header
// (the ckptDoc with State omitted) length-prefixed after the magic,
// then the raw SnapshotState bytes. Detector states run to megabytes
// on long captures; base64-ing them through json.Marshal cost more
// than the snapshot itself, and the persist goroutine shares a core
// with ingest. Frames starting with '{' decode as the legacy all-JSON
// form, so stores written before the framing change still recover.
const ckptFrameMagic = 0xC8

func encodeCkptFrame(d *ckptDoc) ([]byte, error) {
	hdr := *d
	hdr.State = nil
	hj, err := json.Marshal(&hdr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 5+len(hj)+len(d.State))
	buf = append(buf, ckptFrameMagic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hj)))
	buf = append(buf, hj...)
	buf = append(buf, d.State...)
	return buf, nil
}

func decodeCkptFrame(data []byte, d *ckptDoc) error {
	if len(data) > 0 && data[0] == '{' {
		return json.Unmarshal(data, d)
	}
	if len(data) < 5 || data[0] != ckptFrameMagic {
		return fmt.Errorf("sentinel: unrecognized checkpoint frame")
	}
	n := int(binary.LittleEndian.Uint32(data[1:5]))
	if n > len(data)-5 {
		return fmt.Errorf("sentinel: checkpoint frame header %d bytes exceeds frame", n)
	}
	if err := json.Unmarshal(data[5:5+n], d); err != nil {
		return err
	}
	if rest := data[5+n:]; len(rest) > 0 {
		d.State = append([]byte(nil), rest...)
	}
	return nil
}

// persistItem is one unit on a shard's persist queue: a drained finding
// burst (burst.evs non-nil), a detector checkpoint document (ckpt
// non-nil), or one stamped stream-end event.
type persistItem struct {
	ev    Event
	burst findingBurst
	ts    int64
	ckpt  *ckptDoc
}

// events is how many events of the persist queue's bound the item
// holds: a burst its findings, a stream-end one, a checkpoint none.
func (it *persistItem) events() int {
	switch {
	case it.ckpt != nil:
		return 0
	case it.burst.evs != nil:
		return len(it.burst.evs)
	}
	return 1
}

// queuePersist places an event or burst item on the shard's persist
// queue if the queue's bound of PersistBuffer finding events has room
// for all of it, and otherwise counts its events as dropped. It never
// blocks.
func (sh *shard) queuePersist(it persistItem) {
	n := int64(it.events())
	if sh.persistQueued.Add(n) <= int64(sh.srv.cfg.PersistBuffer) {
		select {
		case sh.persist <- it:
			return
		default:
		}
	}
	sh.persistQueued.Add(-n)
	sh.m.persistDropped.Add(uint64(n))
}

// tryPersist places one item on the shard's persist queue. Non-blocking
// by default (durability is best-effort; a full queue is a skipped
// checkpoint or a counted drop, never a stall); block is used for the
// park and final checkpoints, whose loss would cost resumability. A
// send on the closed post-Shutdown queue (only reachable from a wedged
// stream's abandoned goroutines) reports false instead of crashing.
func (sh *shard) tryPersist(it persistItem, block bool) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if block {
		sh.persist <- it
		return true
	}
	select {
	case sh.persist <- it:
		return true
	default:
		return false
	}
}

// queueCheckpoint snapshots the detector and queues the checkpoint for
// this session stream. The caller must have drained the detector (the
// snapshot codec refuses undrained state). seq advances only when the
// snapshot succeeds, so stored sequences are dense per session.
func (s *Server) queueCheckpoint(st *streamState, det *forensics.Detector, off int64, frames int, datalink uint32, seq *uint64, block bool) {
	if st.session == "" || st.sh.persist == nil {
		return
	}
	// Live snapshot, not full: the reducer never reads the accumulated
	// report back, so resumed findings are byte-identical either way,
	// and the live set stays kilobytes where the full report grows with
	// the capture — megabyte snapshots every CheckpointEvery interval
	// were the single largest ingest overhead at replay speed.
	state, err := det.SnapshotLiveState()
	if err != nil {
		return
	}
	*seq++
	st.sh.tryPersist(persistItem{
		ts: time.Now().UnixNano(),
		ckpt: &ckptDoc{
			Session: st.session, Tenant: st.tenant, Stream: st.id,
			Seq: *seq, Offset: off, Frames: frames, Datalink: datalink,
			State: state,
		},
	}, block)
}

// persistLoop is a shard's persistence consumer: it drains the bounded
// queue and appends to the store — each finding burst as records
// encoded into one reused buffer and written by one AppendBatch, each
// stream-end as its JSONL line. It formats no finding text; /query
// does, when it reads. Store errors count as drops — the queue keeps
// draining, so one bad write never wedges the shard.
func (sh *shard) persistLoop() {
	defer close(sh.pdone)
	var buf []byte
	for it := range sh.persist {
		sh.persistQueued.Add(-int64(it.events()))
		if hook := sh.srv.cfg.beforePersist; hook != nil {
			hook(sh.idx)
		}
		switch {
		case it.ckpt != nil:
			sh.persistCkpt(it)
		case it.burst.evs != nil:
			buf = sh.persistBurst(buf[:0], &it.burst)
		default:
			buf = it.ev.appendJSON(buf[:0])
			if err := sh.srv.cfg.Store.Append(SeriesEnds, it.ts, it.ev.Stream, buf); err != nil {
				sh.m.persistDropped.Add(1)
			} else {
				sh.m.persistAppended.Add(1)
			}
		}
	}
}

// persistBurst encodes a burst's findings as records into buf and
// appends them as one batch, one frame per finding, stamped with the
// burst's emission stamp and keyed by its stream. Every finding counts
// once: appended if its frame was written, dropped if it has no record
// form or the store failed before its frame. It returns buf for reuse.
func (sh *shard) persistBurst(buf []byte, fb *findingBurst) []byte {
	for i := range fb.evs {
		var ok bool
		if buf, ok = appendFindingRecord(buf, &fb.evs[i]); !ok {
			sh.m.persistDropped.Add(1)
		}
	}
	if len(buf) == 0 {
		return buf
	}
	recs := len(buf) / findingRecordSize
	n, _ := sh.srv.cfg.Store.AppendBatch(SeriesFindings, fb.ts, fb.stream, buf, findingRecordSize)
	sh.m.persistAppended.Add(uint64(n))
	sh.m.persistDropped.Add(uint64(recs - n))
	return buf
}

// persistCkpt makes one checkpoint durable and then announces it.
// Checkpoints are deliberately outside the persistAppended/Dropped
// event accounting — those counters mirror the JSONL event stream and
// tests pin the exact correspondence.
//
// A checkpoint never gets ahead of the output. Before the append it
// puts a flush token on the shard's event queue and waits until every
// event queued before the checkpoint — every finding the detector
// produced up to the checkpoint's offset — has been written to Output.
// A restart resumes from the newest durable checkpoint and re-emits
// only what follows it, so a checkpoint made durable while earlier
// findings still sat in the queue or the writer's buffer would lose
// those findings to a crash. If the flush misses the write deadline (a
// wedged consumer) the checkpoint is skipped and the previous one stays
// the resume point: the restart then replays more, losing nothing.
//
// The announcement (a "checkpoint" JSONL line) goes out only after the
// append AND an fsync of the checkpoint series, so the line on Output
// is a reliable kill-the-daemon-here marker: any checkpoint an operator
// (or the crash drill in verify.sh) has seen is guaranteed to survive
// a kill -9, and so is every finding line before it.
func (sh *shard) persistCkpt(it persistItem) {
	d := it.ckpt
	if !sh.srv.flushEvents(sh) {
		return
	}
	doc, err := encodeCkptFrame(d)
	if err != nil {
		return
	}
	if err := sh.srv.cfg.Store.Append(SeriesCkpt, it.ts, sessionKey(d.Session), doc); err != nil {
		return
	}
	if err := sh.srv.cfg.Store.SyncSeries(SeriesCkpt); err != nil {
		return
	}
	sh.srv.sess.checkpoints.Add(1)
	if d.Done {
		return // tombstones are bookkeeping, not operator events
	}
	sh.enqueue(shardItem{ev: Event{
		Type: EventCheckpoint, Stream: d.Stream, Session: d.Session,
		Offset: d.Offset, Frame: d.Frames,
		TS: time.Unix(0, it.ts).UTC().Format(time.RFC3339Nano),
	}})
}

// histPoint is the persisted form of one metrics snapshotter interval:
// the raw histogram deltas (not quantiles) for the ingest and detect
// instruments, folded across shards, plus the interval they cover.
// Storing deltas rather than cumulative states is what makes both
// window queries and downsampling lossless bucket merges — "p99 over
// the last hour" is obs.SnapshotOf over the hour's deltas, and an aged
// segment merges adjacent deltas without losing a single bucket count.
type histPoint struct {
	TS         string             `json:"ts"`
	IntervalMS int64              `json:"interval_ms"`
	Ingest     obs.HistogramState `json:"ingest"`
	Detect     obs.HistogramState `json:"detect"`
}

// foldStates returns the cumulative ingest and detect histogram states
// folded across every shard.
func (s *Server) foldStates() (ingest, detect obs.HistogramState) {
	ingest = obs.HistogramState{MinNS: -1}
	detect = obs.HistogramState{MinNS: -1}
	for _, sh := range s.shards {
		ingest = ingest.Merge(sh.m.ingest.State())
		detect = detect.Merge(sh.m.detect.State())
	}
	return ingest, detect
}

// metricsLoop persists one histPoint per MetricsEvery interval: the
// cumulative fold across shards, diffed against the previous tick.
// Empty intervals (no observations) are skipped. On shutdown it
// persists whatever the final partial interval accumulated.
func (s *Server) metricsLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(s.cfg.MetricsEvery)
	defer t.Stop()
	var prevIngest, prevDetect obs.HistogramState
	prevAt := time.Now()
	snap := func() {
		now := time.Now()
		ingest, detect := s.foldStates()
		dIngest, dDetect := ingest.Sub(prevIngest), detect.Sub(prevDetect)
		if dIngest.Empty() && dDetect.Empty() {
			return
		}
		prevIngest, prevDetect = ingest, detect
		pt := histPoint{
			TS:         now.UTC().Format(time.RFC3339Nano),
			IntervalMS: now.Sub(prevAt).Milliseconds(),
			Ingest:     dIngest,
			Detect:     dDetect,
		}
		prevAt = now
		doc, err := json.Marshal(pt)
		if err != nil {
			return
		}
		if err := s.cfg.Store.Append(SeriesHist, now.UnixNano(), 0, doc); err == nil {
			s.shards[0].m.persistAppended.Add(1)
		} else {
			s.shards[0].m.persistDropped.Add(1)
		}
	}
	for {
		select {
		case <-s.snapStop:
			snap() // final partial interval
			return
		case <-t.C:
			snap()
		}
	}
}

// HistDownsample returns the retention decay policy for the histogram
// series: after the given age, every window of interval deltas merges
// into one coarser delta. The merge is lossless for everything a
// quantile query reads (bucket counts, totals, sums); the point's TS
// and frame timestamp keep the newest input's, so time-window pruning
// stays correct.
func HistDownsample(after, window time.Duration) tsdb.Downsampler {
	return tsdb.Downsampler{
		After:  after,
		Window: window,
		Merge: func(frames []tsdb.Frame) (tsdb.Frame, error) {
			var merged histPoint
			for i, fr := range frames {
				var pt histPoint
				if err := json.Unmarshal(fr.Data, &pt); err != nil {
					return tsdb.Frame{}, fmt.Errorf("hist point %d: %w", i, err)
				}
				merged.TS = pt.TS
				merged.IntervalMS += pt.IntervalMS
				merged.Ingest = merged.Ingest.Merge(pt.Ingest)
				merged.Detect = merged.Detect.Merge(pt.Detect)
			}
			doc, err := json.Marshal(merged)
			if err != nil {
				return tsdb.Frame{}, err
			}
			last := frames[len(frames)-1]
			return tsdb.Frame{TS: last.TS, Key: last.Key, Data: doc}, nil
		},
	}
}

// QueryEvent is one persisted event row in a /query response: the
// frame's wall timestamp and stream key, plus the event's JSONL object,
// the same bytes the live stream emitted (renderStored).
type QueryEvent struct {
	TS     string          `json:"ts"`
	Stream uint64          `json:"stream"`
	Event  json.RawMessage `json:"event"`
}

// QueryResult is the /query response document. Event series
// (findings, ends) fill Results; the histogram series folds the
// window's stored deltas into Ingest/Detect percentile snapshots
// covering IntervalMS of observed run time.
type QueryResult struct {
	Series    string       `json:"series"`
	Count     int          `json:"count"`
	Truncated bool         `json:"truncated,omitempty"`
	Results   []QueryEvent `json:"results,omitempty"`

	IntervalMS int64         `json:"interval_ms,omitempty"`
	Ingest     *obs.Snapshot `json:"ingest,omitempty"`
	Detect     *obs.Snapshot `json:"detect,omitempty"`
}

// defaultQueryLimit caps /query result rows unless ?limit= raises it;
// Truncated tells the caller the cap bit.
const defaultQueryLimit = 10000

// maxQueryUnixSec bounds the unix-seconds form of a query time: any
// |sec| beyond it overflows the nanosecond conversion (~year 2262) and
// would wrap negative, silently turning an out-of-range since=/until=
// into an empty result instead of a 400.
const maxQueryUnixSec = math.MaxInt64 / int64(time.Second)

// parseQueryTime accepts RFC3339(Nano) or integer unix seconds.
func parseQueryTime(v string) (int64, error) {
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t.UnixNano(), nil
	}
	if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
		if sec > maxQueryUnixSec || sec < -maxQueryUnixSec {
			return 0, fmt.Errorf("unix seconds %d out of range (|sec| must be <= %d)", sec, maxQueryUnixSec)
		}
		return sec * int64(time.Second), nil
	}
	return 0, fmt.Errorf("bad time %q (want RFC3339 or unix seconds)", v)
}

// handleQuery serves GET /query?series=findings|ends|hist with
// optional stream=, since=, until=, limit= parameters. Served 404 when
// no store is configured (the endpoint does not exist without one).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Cache-Control", "no-store")
	if s.cfg.Store == nil {
		http.Error(w, "no store configured", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	series := q.Get("series")

	since, until := int64(0), time.Now().UnixNano()
	var err error
	if v := q.Get("since"); v != "" {
		if since, err = parseQueryTime(v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("until"); v != "" {
		if until, err = parseQueryTime(v); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	var key uint64
	if v := q.Get("stream"); v != "" {
		if key, err = strconv.ParseUint(v, 10, 64); err != nil || key == 0 {
			http.Error(w, fmt.Sprintf("bad stream %q", v), http.StatusBadRequest)
			return
		}
	}
	limit := defaultQueryLimit
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit <= 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
	}

	res := QueryResult{Series: series}
	switch series {
	case SeriesFindings, SeriesEnds:
		// Rows are rendered into one growing buffer and slice it; a
		// regrowth leaves the earlier rows on the old array, still valid.
		var rows []byte
		qerr := s.cfg.Store.Query(series, since, until, key, func(fr tsdb.Frame) error {
			if len(res.Results) >= limit {
				res.Truncated = true
				return errQueryLimit
			}
			start := len(rows)
			var err error
			if rows, err = renderStored(rows, fr); err != nil {
				return err
			}
			res.Results = append(res.Results, QueryEvent{
				TS:     time.Unix(0, fr.TS).UTC().Format(time.RFC3339Nano),
				Stream: fr.Key,
				Event:  json.RawMessage(rows[start:len(rows):len(rows)]),
			})
			return nil
		})
		if qerr != nil && qerr != errQueryLimit {
			http.Error(w, qerr.Error(), http.StatusInternalServerError)
			return
		}
		res.Count = len(res.Results)
	case SeriesHist:
		var points int
		ingest := obs.HistogramState{MinNS: -1}
		detect := obs.HistogramState{MinNS: -1}
		qerr := s.cfg.Store.Query(series, since, until, 0, func(fr tsdb.Frame) error {
			var pt histPoint
			if err := json.Unmarshal(fr.Data, &pt); err != nil {
				return fmt.Errorf("corrupt hist point: %w", err)
			}
			points++
			res.IntervalMS += pt.IntervalMS
			ingest = ingest.Merge(pt.Ingest)
			detect = detect.Merge(pt.Detect)
			return nil
		})
		if qerr != nil {
			http.Error(w, qerr.Error(), http.StatusInternalServerError)
			return
		}
		res.Count = points
		iSnap, dSnap := obs.SnapshotOf(ingest), obs.SnapshotOf(detect)
		res.Ingest, res.Detect = &iSnap, &dSnap
	default:
		http.Error(w, fmt.Sprintf("bad series %q (want %s, %s, or %s)",
			series, SeriesFindings, SeriesEnds, SeriesHist), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	s.noteWriteErr("/query", enc.Encode(res))
}

// errQueryLimit is the internal sentinel Query callbacks return to stop
// iteration once the response row cap is hit.
var errQueryLimit = fmt.Errorf("query limit reached")
