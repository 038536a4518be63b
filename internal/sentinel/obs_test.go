package sentinel

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// TestConcurrentSnapshotsDuringIngest hammers Snapshot (and its JSON
// encoding, the /metrics path) from several goroutines while multiple
// streams ingest — the exact interleaving a scraped daemon sees. Run
// under -race this pins the lock-free histogram reads as safe.
func TestConcurrentSnapshotsDuringIngest(t *testing.T) {
	capture := synthCapture(t, 8000, 42)
	s := New(Config{Output: &syncBuffer{}})

	const streams = 3
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < streams; i++ {
		pr, pw := io.Pipe()
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer pw.Close()
			// Chunked writes keep the stream alive across many snapshots.
			for off := 0; off < len(capture); off += 4096 {
				end := off + 4096
				if end > len(capture) {
					end = len(capture)
				}
				if _, err := pw.Write(capture[off:end]); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			s.Ingest("test", "conc", pr)
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := s.Snapshot()
				if _, err := json.Marshal(snap); err != nil {
					t.Errorf("snapshot marshal: %v", err)
					return
				}
			}
		}()
	}
	// Let ingest finish, then release the snapshot goroutines.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(done)
	}()
	wg.Wait()

	snap := s.Snapshot()
	if snap.Records != uint64(streams*8000) {
		t.Fatalf("ingested %d records, want %d", snap.Records, streams*8000)
	}
	if snap.IngestLatency.Count == 0 {
		t.Fatal("sampled ingest histogram stayed empty over 24k records")
	}
}

// TestMetricsJSONSchema is the golden schema test for /metrics: the
// exact top-level key set, the per-stream key set, and the histogram
// key set are pinned so the PR 5 additions stay additive — a consumer
// of the old fields must never break, and accidental field renames
// fail here, not in an operator's dashboard.
func TestMetricsJSONSchema(t *testing.T) {
	capture := synthCapture(t, 6400, 42)
	recs, err := snoop.ReadAll(capture)
	if err != nil {
		t.Fatal(err)
	}
	wantFindings := len(forensics.Analyze(recs).Findings)
	if wantFindings == 0 {
		t.Fatal("fixture has no findings")
	}

	s := New(Config{Output: &syncBuffer{}})
	// Feed the whole capture but hold the stream open so the snapshot
	// sees a live per-stream row.
	pr, pw := io.Pipe()
	ingested := make(chan StreamSummary, 1)
	go func() { ingested <- s.Ingest("test", "schema", pr) }()
	if _, err := pw.Write(capture); err != nil {
		t.Fatal(err)
	}
	// Wait for the last detect observations, not only the records: the
	// detector loop counts a batch's records before it observes the
	// detect latencies of that batch's findings, aggregate first and then
	// per stream, so a loaded run can see the records before those.
	settled := func() bool {
		snap := s.Snapshot()
		return snap.Records >= 6400 && len(snap.Streams) == 1 &&
			snap.DetectLatency.Count == uint64(wantFindings) &&
			snap.Streams[0].DetectLatency.Count == uint64(wantFindings)
	}
	deadline := time.After(10 * time.Second)
	for !settled() {
		select {
		case <-deadline:
			t.Fatal("ingest never consumed the capture")
		case <-time.After(time.Millisecond):
		}
	}

	raw, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "top-level", doc, []string{
		// The pre-PR5 document, unchanged:
		"uptime_sec", "streams_active", "streams_total", "streams_rejected",
		"max_streams", "records", "bytes", "bytes_per_sec", "records_per_sec",
		"events_emitted", "events_dropped", "packets", "findings_by_kind",
		"stream_ends_by_status", "streams",
		// PR 5 additive fields:
		"ingest_latency", "detect_latency", "stages",
		// PR 7 additive field: the per-shard breakdown.
		"shards",
		// PR 8 additive field: the durable event path's counters.
		"persist",
		// PR 9 additive field: the session resume protocol's lifecycle.
		"sessions",
	})

	var streams []map[string]json.RawMessage
	if err := json.Unmarshal(doc["streams"], &streams); err != nil {
		t.Fatal(err)
	}
	if len(streams) != 1 {
		t.Fatalf("want 1 live stream row, got %d", len(streams))
	}
	assertKeys(t, "stream row", streams[0], []string{
		"id", "proto", "label", "records", "bytes", "findings", "lag_ms",
		"ingest_latency", "detect_latency",
		// PR 7 additive field: the shard the stream is pinned to.
		"shard",
	})

	var shards []map[string]json.RawMessage
	if err := json.Unmarshal(doc["shards"], &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d shard rows, want GOMAXPROCS=%d (the default shard count)", len(shards), runtime.GOMAXPROCS(0))
	}
	assertKeys(t, "shard row", shards[0], []string{
		"shard", "streams_active", "streams_total", "records", "bytes",
		"events_emitted", "events_dropped", "ingest_latency",
	})

	var hist map[string]json.RawMessage
	if err := json.Unmarshal(doc["ingest_latency"], &hist); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "histogram", hist, []string{
		"count", "mean_us", "min_us", "max_us", "p50_us", "p90_us", "p99_us",
	})

	var stages map[string]json.RawMessage
	if err := json.Unmarshal(doc["stages"], &stages); err != nil {
		t.Fatal(err)
	}
	assertKeys(t, "stages", stages, []string{"scan", "push", "drain", "emit"})

	// Histogram population contract: one detect observation per finding,
	// both per-stream and aggregate; sampled ingest timing non-empty.
	snap := s.Snapshot()
	if snap.DetectLatency.Count != uint64(wantFindings) {
		t.Fatalf("aggregate detect observations %d, want %d (one per finding)", snap.DetectLatency.Count, wantFindings)
	}
	if got := snap.Streams[0].DetectLatency.Count; got != uint64(wantFindings) {
		t.Fatalf("stream detect observations %d, want %d", got, wantFindings)
	}
	if snap.IngestLatency.Count == 0 || snap.Streams[0].IngestLatency.Count == 0 {
		t.Fatal("sampled ingest histograms stayed empty over 6400 records")
	}
	for _, stage := range []string{"scan", "push", "drain", "emit"} {
		if snap.Stages[stage].Count == 0 {
			t.Fatalf("stage %q timer empty over a capture with findings: %+v", stage, snap.Stages)
		}
	}

	pw.Close()
	sum := <-ingested
	if sum.Status != StatusClean {
		t.Fatalf("stream ended %q: %v", sum.Status, sum.Err)
	}
}

func assertKeys(t *testing.T, what string, doc map[string]json.RawMessage, want []string) {
	t.Helper()
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("%s: missing key %q", what, k)
		}
	}
	if len(doc) != len(want) {
		got := make([]string, 0, len(doc))
		for k := range doc {
			got = append(got, k)
		}
		t.Errorf("%s: %d keys, want %d (got %v)", what, len(doc), len(want), got)
	}
}

// TestPprofGatedByConfig pins the profiling mux's opt-in: without
// EnablePprof the debug endpoints must not exist.
func TestPprofGatedByConfig(t *testing.T) {
	capture := synthCapture(t, 100, 1)
	for _, enabled := range []bool{false, true} {
		s := startServer(t, Config{
			HTTPAddr:    "127.0.0.1:0",
			EnablePprof: enabled,
			Output:      &syncBuffer{},
		})
		_ = s.Ingest("test", "pprof", bytes.NewReader(capture))
		resp, err := http.Get("http://" + s.HTTPAddr() + "/debug/pprof/cmdline")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if enabled {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Fatalf("enabled=%v: /debug/pprof/cmdline returned %d, want %d", enabled, resp.StatusCode, want)
		}
	}
}
