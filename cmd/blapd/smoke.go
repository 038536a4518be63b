package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// smokeStreams is how many concurrent clients the smoke run drives
// through the Unix socket. Four is enough to land on more than one
// shard under the default shard count while keeping the check fast.
const smokeStreams = 4

// runSmoke is blapd's self-contained end-to-end check, wired into
// scripts/verify.sh: start a server on ephemeral sockets, stream a
// synthesized capture through the Unix socket over several concurrent
// one-shot sessions like real clients, and verify every stream's live
// JSONL events match a batch forensics.Analyze of the same capture — plus
// that /metrics reports per-shard counters that sum to the aggregate,
// and /healthz answers sanely.
func runSmoke(log io.Writer, shards int) error {
	const records = 25_000
	var capture bytes.Buffer
	if _, err := snoop.Synthesize(&capture, snoop.SynthConfig{Records: records, Seed: 42}); err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	recs, err := snoop.ReadAll(capture.Bytes())
	if err != nil {
		return err
	}
	want := forensics.Analyze(recs).Findings
	if len(want) == 0 {
		return fmt.Errorf("smoke fixture produced no findings; synth config is broken")
	}

	// The smoke run also exercises the PR 8 persistence path: a real
	// store in a temp dir, written through by the persist queues and the
	// metrics snapshotter, then read back over /query.
	storeDir, err := os.MkdirTemp("", "blapd-smoke-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	store, err := tsdb.Open(tsdb.Options{Dir: storeDir})
	if err != nil {
		return fmt.Errorf("opening store: %w", err)
	}
	defer store.Close()

	var events bytes.Buffer
	done := make(chan sentinel.StreamSummary, smokeStreams)
	sock := filepath.Join(os.TempDir(), fmt.Sprintf("blapd-smoke-%d.sock", os.Getpid()))
	s := sentinel.New(sentinel.Config{
		UnixAddr:     sock,
		HTTPAddr:     "127.0.0.1:0",
		MaxStreams:   smokeStreams,
		Shards:       shards,
		EnablePprof:  true,
		Output:       &events,
		Store:        store,
		MetricsEvery: 50 * time.Millisecond,
		// The PR 9 resilience leg below needs parking, frequent acks so a
		// resume restarts near the cut, and checkpoints small enough to
		// fire several times over this capture.
		ResumeGrace:     time.Minute,
		AckEvery:        4096,
		CheckpointEvery: 64 << 10,
		OnStreamEnd:     func(sum sentinel.StreamSummary) { done <- sum },
	})
	if err := s.Start(); err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	errs := make(chan error, smokeStreams)
	var wg sync.WaitGroup
	for i := 0; i < smokeStreams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A one-shot session: the capture, the fin, then a read to EOF,
			// which the daemon sends once the stream has ended.
			conn, _, err := sentinel.DialSession("unix", s.UnixAddr(), "", "", 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if _, err := sentinel.WriteSessionBytes(conn, capture.Bytes()); err != nil {
				errs <- fmt.Errorf("streaming capture: %w", err)
				return
			}
			if err := sentinel.WriteSessionFin(conn); err != nil {
				errs <- fmt.Errorf("fin: %w", err)
				return
			}
			if _, err := io.Copy(io.Discard, conn); err != nil {
				errs <- fmt.Errorf("waiting for the stream end: %w", err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}

	for i := 0; i < smokeStreams; i++ {
		var sum sentinel.StreamSummary
		select {
		case sum = <-done:
		case <-time.After(30 * time.Second):
			return fmt.Errorf("stream %d/%d never finished", i+1, smokeStreams)
		}
		if sum.Status != sentinel.StatusClean {
			return fmt.Errorf("stream %d ended %q: %v", sum.ID, sum.Status, sum.Err)
		}
		if sum.Records != records {
			return fmt.Errorf("stream %d ingested %d records, sent %d", sum.ID, sum.Records, records)
		}
		if sum.EventsDropped != 0 {
			return fmt.Errorf("stream %d dropped %d events in a healthy smoke run", sum.ID, sum.EventsDropped)
		}
	}

	// Every stream's live events must equal the batch findings
	// record-for-record — the aggregate parity the sharded fan-in must
	// preserve even with all streams interleaving on one output.
	live := map[uint64][]sentinel.Event{}
	sc := bufio.NewScanner(bytes.NewReader(events.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev sentinel.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad JSONL line %q: %w", sc.Text(), err)
		}
		if ev.Type == sentinel.EventFinding {
			live[ev.Stream] = append(live[ev.Stream], ev)
		}
	}
	if len(live) != smokeStreams {
		return fmt.Errorf("findings seen on %d streams, want %d", len(live), smokeStreams)
	}
	for id, evs := range live {
		if len(evs) != len(want) {
			return fmt.Errorf("stream %d emitted %d findings, batch found %d", id, len(evs), len(want))
		}
		for i, ev := range evs {
			w := want[i]
			if ev.Frame != w.Frame || ev.Kind != w.Kind || ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
				return fmt.Errorf("stream %d finding %d diverges:\nlive:  %+v\nbatch: %+v", id, i, ev, w)
			}
		}
	}

	// Metrics and health must be served and consistent.
	resp, err := http.Get("http://" + s.HTTPAddr() + "/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	var snap sentinel.MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/metrics decode: %w", err)
	}
	if snap.Records != smokeStreams*records || snap.StreamsTotal != smokeStreams {
		return fmt.Errorf("metrics inconsistent: %+v", snap)
	}
	// The PR 7 shard contract: /metrics carries one row per event shard,
	// and the shard rows sum to the aggregates they replaced.
	wantShards := shards
	if wantShards <= 0 {
		wantShards = runtime.GOMAXPROCS(0)
	}
	if len(snap.Shards) != wantShards {
		return fmt.Errorf("/metrics has %d shard rows, want %d", len(snap.Shards), wantShards)
	}
	var shardRecords, shardStreams, shardDropped uint64
	for _, row := range snap.Shards {
		shardRecords += row.Records
		shardStreams += row.StreamsTotal
		shardDropped += row.EventsDropped
	}
	if shardRecords != snap.Records || shardStreams != snap.StreamsTotal {
		return fmt.Errorf("shard rows sum to %d records / %d streams, aggregate says %d / %d",
			shardRecords, shardStreams, snap.Records, snap.StreamsTotal)
	}
	if shardDropped != 0 {
		return fmt.Errorf("shards dropped %d events in a healthy smoke run", shardDropped)
	}
	// The PR 5 observability contract: /metrics must carry populated
	// latency histograms — sampled ingest timing, one detect observation
	// per finding, and the scan/push/drain/emit stage breakdown.
	if snap.IngestLatency.Count == 0 {
		return fmt.Errorf("ingest latency histogram empty: %+v", snap.IngestLatency)
	}
	if snap.DetectLatency.Count != uint64(smokeStreams*len(want)) {
		return fmt.Errorf("detect latency observed %d findings, want %d", snap.DetectLatency.Count, smokeStreams*len(want))
	}
	for _, stage := range []string{"scan", "push", "drain", "emit"} {
		if snap.Stages[stage].Count == 0 {
			return fmt.Errorf("stage %q histogram empty: %+v", stage, snap.Stages)
		}
	}
	hresp, err := http.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		return fmt.Errorf("/healthz: %w", err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz returned %d", hresp.StatusCode)
	}
	// pprof was opted in above, so the profiling mux must answer.
	presp, err := http.Get("http://" + s.HTTPAddr() + "/debug/pprof/cmdline")
	if err != nil {
		return fmt.Errorf("/debug/pprof/cmdline: %w", err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		return fmt.Errorf("/debug/pprof/cmdline returned %d", presp.StatusCode)
	}

	// The PR 8 persistence contract: every finding written through the
	// store comes back from /query, the stream filter isolates one
	// stream, stream ends are recorded, and a hist window query folds the
	// stored snapshot deltas into populated percentiles. Persistence is
	// asynchronous (a bounded queue off the hot path), so poll briefly
	// for the store writer and the snapshotter to catch up.
	wantFindings := smokeStreams * len(want)
	var qres sentinel.QueryResult
	deadline := time.Now().Add(15 * time.Second)
	for {
		if qres, err = smokeQuery(s.HTTPAddr(), "/query?series=findings"); err != nil {
			return err
		}
		if qres.Count >= wantFindings {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("store never caught up: /query has %d of %d findings", qres.Count, wantFindings)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if qres.Count != wantFindings {
		return fmt.Errorf("/query returned %d findings, wrote %d", qres.Count, wantFindings)
	}
	for id := range live {
		if qres, err = smokeQuery(s.HTTPAddr(), fmt.Sprintf("/query?series=findings&stream=%d", id)); err != nil {
			return err
		}
		if qres.Count != len(want) {
			return fmt.Errorf("/query stream=%d returned %d findings, want %d", id, qres.Count, len(want))
		}
	}
	if qres, err = smokeQuery(s.HTTPAddr(), "/query?series=ends"); err != nil {
		return err
	}
	if qres.Count != smokeStreams {
		return fmt.Errorf("/query returned %d stream ends, want %d", qres.Count, smokeStreams)
	}
	for {
		if qres, err = smokeQuery(s.HTTPAddr(), "/query?series=hist"); err != nil {
			return err
		}
		if qres.Count > 0 && qres.Ingest != nil && qres.Ingest.Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hist window never populated: %+v", qres)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if qres.Ingest.P50US <= 0 || qres.Ingest.P99US <= 0 {
		return fmt.Errorf("hist window percentiles unpopulated: %+v", qres.Ingest)
	}

	// The PR 9 resilience contract: a session-protocol stream whose
	// transport dies at the capture midpoint parks, resumes under the
	// same stream id from the offset in the daemon's hello, and still
	// ends clean with the batch findings — while detector checkpoints
	// flow through the store.
	const resumeSID = "smoke-resume"
	rconn, hello, err := sentinel.DialSession("unix", s.UnixAddr(), resumeSID, "", 5*time.Second)
	if err != nil {
		return fmt.Errorf("session dial: %w", err)
	}
	resumeStream := hello.Stream
	cut := int64(capture.Len() / 2)
	if _, err := sentinel.WriteSessionChunks(rconn, &faults.CutReader{R: bytes.NewReader(capture.Bytes()), N: cut}); err != nil && !errors.Is(err, faults.ErrCut) {
		_ = rconn.Close()
		return fmt.Errorf("cut send: %w", err)
	}
	_ = rconn.Close()
	// Wait for the daemon to notice the dead transport and park the
	// session, so this leg proves a parked stream resumes rather than a
	// reconnect taking over a still-live transport.
	for {
		if snap, err = smokeMetrics(s.HTTPAddr()); err != nil {
			return err
		}
		if snap.Sessions.Parked >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("session never parked after transport cut: %+v", snap.Sessions)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rconn, hello, err = sentinel.DialSession("unix", s.UnixAddr(), resumeSID, "", 5*time.Second)
	if err != nil {
		return fmt.Errorf("resume dial: %w", err)
	}
	defer rconn.Close()
	if hello.Stream != resumeStream {
		return fmt.Errorf("resumed as stream %d, was %d", hello.Stream, resumeStream)
	}
	if hello.Offset <= 0 || hello.Offset > cut {
		return fmt.Errorf("resume offset %d outside (0, %d]", hello.Offset, cut)
	}
	if _, err := sentinel.WriteSessionChunks(rconn, bytes.NewReader(capture.Bytes()[hello.Offset:])); err != nil {
		return fmt.Errorf("resumed send: %w", err)
	}
	if err := sentinel.WriteSessionFin(rconn); err != nil {
		return fmt.Errorf("fin: %w", err)
	}
	var rsum sentinel.StreamSummary
	select {
	case rsum = <-done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("resumed stream never ended")
	}
	if rsum.ID != resumeStream || rsum.Status != sentinel.StatusClean || rsum.Records != records {
		return fmt.Errorf("resumed stream ended id=%d status=%q records=%d (err %v), want clean stream %d with %d records",
			rsum.ID, rsum.Status, rsum.Records, rsum.Err, resumeStream, records)
	}
	var resumed []sentinel.Event
	rsc := bufio.NewScanner(bytes.NewReader(events.Bytes()))
	rsc.Buffer(make([]byte, 1<<20), 1<<20)
	for rsc.Scan() {
		var ev sentinel.Event
		if err := json.Unmarshal(rsc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad JSONL line %q: %w", rsc.Text(), err)
		}
		if ev.Type == sentinel.EventFinding && ev.Stream == resumeStream {
			resumed = append(resumed, ev)
		}
	}
	if len(resumed) != len(want) {
		return fmt.Errorf("resumed stream emitted %d findings across the cut, batch found %d", len(resumed), len(want))
	}
	for i, ev := range resumed {
		w := want[i]
		if ev.Frame != w.Frame || ev.Kind != w.Kind || ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
			return fmt.Errorf("resumed finding %d diverges:\nlive:  %+v\nbatch: %+v", i, ev, w)
		}
	}
	if snap, err = smokeMetrics(s.HTTPAddr()); err != nil {
		return err
	}
	if snap.Sessions.ParkedTotal < 1 || snap.Sessions.Resumed < 1 || snap.Sessions.Checkpoints < 1 {
		return fmt.Errorf("session lifecycle counters unpopulated after resume: %+v", snap.Sessions)
	}

	fmt.Fprintf(log, "blapd smoke: %d streams x %d records over %d shards, live findings == batch on every stream, %d findings round-tripped through the store (window p50 %s p99 %s), session cut at byte %d resumed from %d with identical findings (%d checkpoints), ingest p99 %s, detect p99 %s, metrics/healthz/pprof/query ok\n",
		smokeStreams, records, wantShards, wantFindings, usStr(qres.Ingest.P50US), usStr(qres.Ingest.P99US), cut, hello.Offset, snap.Sessions.Checkpoints, usStr(snap.IngestLatency.P99US), usStr(snap.DetectLatency.P99US))
	return nil
}

// smokeMetrics fetches and decodes one /metrics snapshot.
func smokeMetrics(addr string) (sentinel.MetricsSnapshot, error) {
	var snap sentinel.MetricsSnapshot
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return snap, fmt.Errorf("/metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("/metrics decode: %w", err)
	}
	return snap, nil
}

// smokeQuery fetches one /query page from the smoke daemon.
func smokeQuery(addr, path string) (sentinel.QueryResult, error) {
	var res sentinel.QueryResult
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("%s returned %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, fmt.Errorf("%s decode: %w", path, err)
	}
	return res, nil
}

func usStr(us float64) string {
	return time.Duration(us * 1e3).Round(time.Microsecond).String()
}
