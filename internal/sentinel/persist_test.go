package sentinel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/tsdb"
)

// openTestStore opens a tsdb store in a temp dir, closed after the
// server that uses it shuts down (cleanups run LIFO).
func openTestStore(t *testing.T) *tsdb.Store {
	t.Helper()
	store, err := tsdb.Open(tsdb.Options{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// filterLines returns the JSONL lines of raw containing the marker.
func filterLines(raw []byte, marker string) [][]byte {
	var out [][]byte
	for _, ln := range bytes.Split(raw, []byte("\n")) {
		if len(ln) > 0 && bytes.Contains(ln, []byte(marker)) {
			out = append(out, ln)
		}
	}
	return out
}

func queryAll(t *testing.T, store *tsdb.Store, series string) []tsdb.Frame {
	t.Helper()
	var out []tsdb.Frame
	err := store.Query(series, 0, math.MaxInt64, tsdb.KeyAny, func(fr tsdb.Frame) error {
		out = append(out, tsdb.Frame{TS: fr.TS, Key: fr.Key, Data: append([]byte(nil), fr.Data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPersistedEventsMatchLiveJSONL is the durability ground-truth
// check: every finding and stream-end line the daemon emits must come
// back from the store byte-for-byte as renderStored renders it (same
// encoder, same stamped event), keyed by
// its stream id, with a frame timestamp that matches the line's ts
// field. It runs on a sparse capture and on a dense one, a finding
// every ~10 records, whose bursts cross the queues in many chunks.
func TestPersistedEventsMatchLiveJSONL(t *testing.T) {
	for _, tc := range []struct {
		name    string
		capture []byte
	}{
		{"sparse", synthCapture(t, 6400, 42)},
		{"dense", synthDense(t, 40000, 42)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkPersistedMatchesLive(t, tc.capture) })
	}
}

func checkPersistedMatchesLive(t *testing.T, capture []byte) {
	store := openTestStore(t)
	var out syncBuffer
	s := New(Config{Output: &out, Store: store, MetricsEvery: -1})
	sum := s.Ingest("test", "persist", bytes.NewReader(capture))
	if sum.Findings == 0 {
		t.Fatal("fixture produced no findings")
	}
	shutdown(t, s) // drains the persist queues

	wantFindings := filterLines(out.Lines(), `"type":"finding"`)
	wantEnds := filterLines(out.Lines(), `"type":"stream-end"`)
	gotFindings := queryAll(t, store, SeriesFindings)
	gotEnds := queryAll(t, store, SeriesEnds)
	if len(gotFindings) != len(wantFindings) || uint64(len(wantFindings)) != sum.Findings {
		t.Fatalf("persisted %d findings, emitted %d, detector found %d", len(gotFindings), len(wantFindings), sum.Findings)
	}
	if len(gotEnds) != len(wantEnds) || len(wantEnds) != 1 {
		t.Fatalf("persisted %d ends, emitted %d", len(gotEnds), len(wantEnds))
	}
	for i, fr := range gotFindings {
		line, err := renderStored(nil, fr)
		if err != nil || !bytes.Equal(line, wantFindings[i]) {
			t.Fatalf("finding %d: persisted bytes diverge from JSONL (%v):\nstore: %s\nlive:  %s", i, err, line, wantFindings[i])
		}
		if fr.Key != sum.ID {
			t.Fatalf("finding %d keyed by %d, want stream %d", i, fr.Key, sum.ID)
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		stamped, err := time.Parse(time.RFC3339Nano, ev.TS)
		if err != nil {
			t.Fatalf("finding %d: bad ts %q: %v", i, ev.TS, err)
		}
		if got := stamped.UnixNano(); got != fr.TS {
			t.Fatalf("finding %d: frame ts %d != event ts %d", i, fr.TS, got)
		}
	}
	if !bytes.Equal(gotEnds[0].Data, wantEnds[0]) {
		t.Fatalf("stream-end diverges:\nstore: %s\nlive:  %s", gotEnds[0].Data, wantEnds[0])
	}
	// Persist accounting: everything appended, nothing dropped.
	snap := s.Snapshot()
	if want := uint64(len(wantFindings) + len(wantEnds)); snap.Persist.Appended != want {
		t.Fatalf("persist.appended %d, want %d", snap.Persist.Appended, want)
	}
	if snap.Persist.Dropped != 0 {
		t.Fatalf("persist.dropped %d, want 0", snap.Persist.Dropped)
	}
}

// TestTimestampGating pins the determinism contract: events carry ts
// only when asked (Timestamps) or needed (Store) — the one-shot batch
// path must stay byte-identical across runs.
func TestTimestampGating(t *testing.T) {
	capture := synthCapture(t, 1600, 42)

	var plain syncBuffer
	s := New(Config{Output: &plain})
	s.Ingest("test", "plain", bytes.NewReader(capture))
	shutdown(t, s)
	for _, ev := range parseEvents(t, plain.Lines()) {
		if ev.TS != "" {
			t.Fatalf("untimestamped config emitted ts: %+v", ev)
		}
	}

	var stamped syncBuffer
	s2 := New(Config{Output: &stamped, Timestamps: true})
	s2.Ingest("test", "stamped", bytes.NewReader(capture))
	shutdown(t, s2)
	evs := parseEvents(t, stamped.Lines())
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	for _, ev := range evs {
		if _, err := time.Parse(time.RFC3339Nano, ev.TS); err != nil {
			t.Fatalf("event missing/bad ts: %+v (%v)", ev, err)
		}
	}
}

// TestMetricsSnapshotterPersistsHist: the periodic snapshotter must
// store interval deltas whose fold reproduces the live aggregate
// histogram exactly (count and sum; quantiles follow from buckets).
// Shutdown persists the final partial interval, so even a short run is
// fully covered.
func TestMetricsSnapshotterPersistsHist(t *testing.T) {
	store := openTestStore(t)
	var out syncBuffer
	s := New(Config{Output: &out, Store: store, MetricsEvery: 10 * time.Millisecond})
	capture := synthCapture(t, 6400, 42)
	for i := 0; i < 3; i++ {
		s.Ingest("test", "hist", bytes.NewReader(capture))
		time.Sleep(15 * time.Millisecond) // let ticks land between streams
	}
	live := s.Snapshot().IngestLatency
	shutdown(t, s)

	points := queryAll(t, store, SeriesHist)
	if len(points) == 0 {
		t.Fatal("snapshotter persisted no hist points")
	}
	var merged histPoint
	merged.Ingest.MinNS = -1
	merged.Detect.MinNS = -1
	for _, fr := range points {
		if fr.Key != 0 {
			t.Fatalf("hist point keyed by %d, want 0", fr.Key)
		}
		var pt histPoint
		if err := json.Unmarshal(fr.Data, &pt); err != nil {
			t.Fatal(err)
		}
		merged.Ingest = merged.Ingest.Merge(pt.Ingest)
		merged.Detect = merged.Detect.Merge(pt.Detect)
	}
	if merged.Ingest.Count != live.Count {
		t.Fatalf("folded hist count %d, live %d", merged.Ingest.Count, live.Count)
	}
	folded := merged.Ingest.Restore().Snapshot()
	if folded.P99US <= 0 || folded.MaxUS != live.MaxUS {
		t.Fatalf("folded quantiles wrong: folded %+v live %+v", folded, live)
	}
	if merged.Detect.Count == 0 {
		t.Fatal("detect deltas empty despite findings")
	}
}

// TestQueryEndpoint drives /query over HTTP: event round-trips, the
// stream filter, the hist fold, parameter validation, and the
// Cache-Control headers on every point-in-time endpoint.
func TestQueryEndpoint(t *testing.T) {
	store := openTestStore(t)
	var out syncBuffer
	s := startServer(t, Config{
		HTTPAddr:     "127.0.0.1:0",
		Output:       &out,
		Store:        store,
		MetricsEvery: 10 * time.Millisecond,
	})
	base := "http://" + s.HTTPAddr()
	capture := synthCapture(t, 6400, 42)
	sum := s.Ingest("test", "q", bytes.NewReader(capture))
	if sum.Findings == 0 {
		t.Fatal("no findings")
	}

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Persistence is async: poll until the store has every finding.
	var res QueryResult
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get("/query?series=findings")
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad /query body %s: %v", body, err)
		}
		if uint64(res.Count) >= sum.Findings {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never caught up: %d of %d findings", res.Count, sum.Findings)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if uint64(res.Count) != sum.Findings {
		t.Fatalf("/query count %d, want %d", res.Count, sum.Findings)
	}
	for _, qe := range res.Results {
		if qe.Stream != sum.ID {
			t.Fatalf("result from stream %d, want %d", qe.Stream, sum.ID)
		}
		var ev Event
		if err := json.Unmarshal(qe.Event, &ev); err != nil || ev.Type != EventFinding {
			t.Fatalf("bad embedded event %s: %v", qe.Event, err)
		}
	}

	// Stream filter: the right id returns everything, a wrong id nothing.
	_, body := get(fmt.Sprintf("/query?series=findings&stream=%d", sum.ID))
	if err := json.Unmarshal(body, &res); err != nil || uint64(res.Count) != sum.Findings {
		t.Fatalf("stream filter: %s (%v)", body, err)
	}
	_, body = get(fmt.Sprintf("/query?series=findings&stream=%d", sum.ID+100))
	if err := json.Unmarshal(body, &res); err != nil || res.Count != 0 {
		t.Fatalf("wrong-stream filter returned rows: %s (%v)", body, err)
	}

	// The stream's end is stored too; poll for it as for the findings.
	for {
		_, body = get("/query?series=ends")
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad ends body %s: %v", body, err)
		}
		if res.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream end never stored: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res.Count != 1 || res.Results[0].Stream != sum.ID {
		t.Fatalf("/query?series=ends: %s, want one end for stream %d", body, sum.ID)
	}

	// Window: a since in the future excludes everything.
	_, body = get("/query?series=findings&since=" + time.Now().Add(time.Hour).UTC().Format(time.RFC3339))
	if err := json.Unmarshal(body, &res); err != nil || res.Count != 0 {
		t.Fatalf("future window returned rows: %s (%v)", body, err)
	}

	// Limit + truncation marker.
	_, body = get("/query?series=findings&limit=1")
	if err := json.Unmarshal(body, &res); err != nil || res.Count != 1 || !res.Truncated {
		t.Fatalf("limit=1: %s (%v)", body, err)
	}

	// Hist fold: poll until a tick lands, then expect populated
	// percentiles over the window.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, body = get("/query?series=hist")
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatalf("bad hist body %s: %v", body, err)
		}
		if res.Count > 0 && res.Ingest != nil && res.Ingest.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hist window never populated: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res.Ingest.P50US <= 0 || res.Ingest.P99US <= 0 || res.IntervalMS < 0 {
		t.Fatalf("hist snapshot unpopulated: %+v", res)
	}

	// Validation.
	for path, want := range map[string]int{
		"/query?series=nope":                http.StatusBadRequest,
		"/query":                            http.StatusBadRequest,
		"/query?series=findings&since=huh":  http.StatusBadRequest,
		"/query?series=findings&stream=-1":  http.StatusBadRequest,
		"/query?series=findings&limit=zero": http.StatusBadRequest,
		// Unix seconds beyond ~year 2262 overflow the nanosecond
		// conversion; they must be a 400, not a silently empty window.
		"/query?series=findings&since=99999999999999":  http.StatusBadRequest,
		"/query?series=findings&until=-99999999999999": http.StatusBadRequest,
	} {
		resp, _ := get(path)
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// Cache-Control on every point-in-time endpoint.
	for _, path := range []string{"/metrics", "/healthz", "/query?series=findings"} {
		resp, _ := get(path)
		if got := resp.Header.Get("Cache-Control"); got != "no-store" {
			t.Fatalf("%s Cache-Control = %q, want no-store", path, got)
		}
	}
}

// TestQueryWithoutStoreIs404: the endpoint does not exist when no store
// is configured.
func TestQueryWithoutStoreIs404(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Output: &syncBuffer{}})
	resp, err := http.Get("http://" + s.HTTPAddr() + "/query?series=findings")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestParseQueryTimeOverflow pins the unix-seconds bounds: values whose
// nanosecond conversion would wrap int64 are rejected, the extremes that
// still fit are accepted exactly.
func TestParseQueryTimeOverflow(t *testing.T) {
	for _, bad := range []string{"9223372037", "-9223372037", "99999999999999", "-99999999999999"} {
		if _, err := parseQueryTime(bad); err == nil {
			t.Fatalf("parseQueryTime(%q) accepted an overflowing value", bad)
		}
	}
	for _, ok := range []struct {
		in   string
		want int64
	}{
		{"0", 0},
		{"1700000000", 1700000000 * int64(time.Second)},
		{"9223372036", 9223372036 * int64(time.Second)},
		{"-9223372036", -9223372036 * int64(time.Second)},
	} {
		got, err := parseQueryTime(ok.in)
		if err != nil || got != ok.want {
			t.Fatalf("parseQueryTime(%q) = %d, %v; want %d", ok.in, got, err, ok.want)
		}
	}
}

// liveFindings returns n page-blocking findings numbered from seq first,
// in the form the live detector emits them: Detail empty and the
// finding's frame equal to the event's.
func liveFindings(n, first int) []forensics.Event {
	evs := make([]forensics.Event, n)
	for i := range evs {
		seq := first + i
		evs[i] = forensics.Event{
			Seq: uint64(seq), Frame: 10 * seq, Time: time.Unix(1_700_000_000, int64(seq)),
			Finding: forensics.Finding{Kind: forensics.FindingPageBlocking, Frame: 10 * seq, Peer: bt.BDADDR{0xa, 0, 0, 0, 0, byte(seq)}},
		}
	}
	return evs
}

// TestPersistOverflowDropsCounted wedges the persist path (the hook
// blocks the persist goroutine mid-item) and floods one-finding bursts:
// the bounded queue must fill, overflow must be counted as drops — and
// the event path itself must stay unblocked throughout, which this test
// proves by finishing.
func TestPersistOverflowDropsCounted(t *testing.T) {
	store := openTestStore(t)
	release := make(chan struct{})
	entered := make(chan struct{}, 64)
	var out syncBuffer
	cfg := Config{
		Output:        &out,
		Store:         store,
		MetricsEvery:  -1,
		Shards:        1,
		PersistBuffer: 1,
	}
	cfg.beforePersist = func(int) { entered <- struct{}{}; <-release }
	s := New(cfg)
	st := &streamState{id: 7, sh: s.shards[0]}

	const events = 32
	// First burst: wait until the persist goroutine is wedged inside the
	// hook holding it, so the queue slot is provably free again.
	s.emitFindings(st, liveFindings(1, 1))
	<-entered
	// Second burst occupies the single queue slot; the rest must drop.
	for i := 1; i < events; i++ {
		s.emitFindings(st, liveFindings(1, i+1))
	}
	// One item is wedged in the hook, one sits in the queue; the rest
	// must have dropped without blocking emitFindings (we got here).
	snap := s.Snapshot()
	if want := uint64(events - 2); snap.Persist.Dropped != want {
		t.Fatalf("persist.dropped %d, want %d", snap.Persist.Dropped, want)
	}
	close(release)
	shutdown(t, s)
	if got := len(queryAll(t, store, SeriesFindings)); got != 2 {
		t.Fatalf("store holds %d findings, want the 2 that were queued", got)
	}
	snap = s.Snapshot()
	if snap.Persist.Appended != 2 || snap.Persist.Dropped != events-2 {
		t.Fatalf("final persist accounting %+v", snap.Persist)
	}
}

// TestShutdownDrainsPersistQueue: finding bursts sitting in the persist
// queue at Shutdown must reach the store before Shutdown returns
// (emitters are gone by the time the queues close, so the drain is
// complete, not racy).
func TestShutdownDrainsPersistQueue(t *testing.T) {
	store := openTestStore(t)
	slow := make(chan struct{}, 1)
	var out syncBuffer
	cfg := Config{Output: &out, Store: store, MetricsEvery: -1, Shards: 1}
	cfg.beforePersist = func(int) {
		select {
		case <-slow: // first item stalls briefly so the rest queue up
			time.Sleep(50 * time.Millisecond)
		default:
		}
	}
	s := New(cfg)
	st := &streamState{id: 3, sh: s.shards[0]}
	slow <- struct{}{}
	const events = 16
	for i := 0; i < events; i++ {
		s.emitFindings(st, liveFindings(1, i+1))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := len(queryAll(t, store, SeriesFindings)); got != events {
		t.Fatalf("store holds %d findings after shutdown, want %d", got, events)
	}
}

// TestPersistFullDiskAccounting fills the store's volume in the middle
// of one finding burst: the frames written before the fault count as
// appended and the rest of the burst as dropped, so the two add up to
// the findings offered, and what a reopened store recovers is a prefix
// of the burst that renders.
func TestPersistFullDiskAccounting(t *testing.T) {
	dir := t.TempDir()
	store, err := tsdb.Open(tsdb.Options{
		Dir: dir, CompactEvery: -1, SyncEvery: -1,
		WrapWriter: func(series string, w io.Writer) io.Writer {
			if series != SeriesFindings {
				return w
			}
			// Room for about 1.5 of the store's 64 KiB write buffers:
			// the second flush, some 1,800 findings in, fails.
			return &faults.FullWriter{W: w, N: 96 << 10}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Output: &syncBuffer{}, Store: store, MetricsEvery: -1, Shards: 1})
	const offered = 3000
	s.emitFindings(&streamState{id: 5, sh: s.shards[0]}, liveFindings(offered, 1))
	shutdown(t, s)
	store.Close() // fails: the volume is still full

	p := s.Snapshot().Persist
	if p.Appended+p.Dropped != offered || p.Appended == 0 || p.Dropped == 0 {
		t.Fatalf("persist accounting %+v for %d findings offered, want both nonzero and summing to it", p, offered)
	}
	r, err := tsdb.Open(tsdb.Options{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := queryAll(t, r, SeriesFindings)
	if len(got) == 0 || uint64(len(got)) > p.Appended {
		t.Fatalf("reopened store holds %d findings, %d appended", len(got), p.Appended)
	}
	want := liveFindings(len(got), 1)
	for i, fr := range got {
		line, err := renderStored(nil, fr)
		if wantLine := appendFinding(nil, 5, appendStamp(nil, fr.TS), &want[i]); err != nil || !bytes.Equal(line, wantLine) {
			t.Fatalf("recovered finding %d renders %s (%v), want %s", i, line, err, wantLine)
		}
	}
}
