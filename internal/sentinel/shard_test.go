package sentinel

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestShardPinningStableAndSpread pins shardFor: the same stream id
// always lands on the same shard (pinning is what preserves per-stream
// event order), and sequential ids — which is what nextID hands out —
// spread across every shard rather than clumping.
func TestShardPinningStableAndSpread(t *testing.T) {
	s := New(Config{Shards: 8})
	defer shutdown(t, s)
	hits := make([]int, len(s.shards))
	for id := uint64(1); id <= 4096; id++ {
		sh := s.shardFor(id)
		if again := s.shardFor(id); again != sh {
			t.Fatalf("shardFor(%d) not stable", id)
		}
		hits[sh.idx]++
	}
	for idx, n := range hits {
		// Fair share is 512; insist every shard carries a real load.
		if n < 256 {
			t.Fatalf("shard %d got %d of 4096 sequential ids — hash not spreading: %v", idx, n, hits)
		}
	}
}

// TestShardsOneReproducesSingleWriterOutput is the -shards 1
// compatibility pin: with one shard, a single stream's JSONL output
// must be exactly the pre-shard single-writer rendering — each line the
// json.Marshal encoding of its event, one line per event, in emit
// order, stable across runs.
func TestShardsOneReproducesSingleWriterOutput(t *testing.T) {
	capture := synthCapture(t, 2000, 11)
	run := func() []byte {
		var out syncBuffer
		s := New(Config{Shards: 1, Output: &out})
		defer shutdown(t, s)
		sum := s.Ingest("test", "compat", bytes.NewReader(capture))
		if sum.Status != StatusClean || sum.EventsDropped != 0 {
			t.Fatalf("stream: %+v", sum)
		}
		return out.Lines()
	}
	first := run()
	if !bytes.Equal(first, run()) {
		t.Fatal("shards=1 output not stable across identical runs")
	}

	// Rebuild the byte stream the PR 6 writer would have produced —
	// json.Marshal per parsed event, in order — and demand identity.
	evs := parseEvents(t, first)
	if len(evs) < 3 {
		t.Fatalf("fixture produced only %d events", len(evs))
	}
	if evs[0].Type != EventStreamStart || evs[len(evs)-1].Type != EventStreamEnd {
		t.Fatalf("event envelope wrong: first %q last %q", evs[0].Type, evs[len(evs)-1].Type)
	}
	var want bytes.Buffer
	for _, ev := range evs {
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want.Write(line)
		want.WriteByte('\n')
	}
	if !bytes.Equal(first, want.Bytes()) {
		t.Fatal("shards=1 output is not the per-event json.Marshal rendering")
	}
}

// TestWedgedShardDropsOnlyItsOwnStreams wedges exactly one shard writer
// (via the beforeFlush hook, which runs outside the output lock) and
// proves the blast radius: streams pinned to the wedged shard drop
// events on the write deadline, streams on the other shard lose
// nothing and their full event stream reaches the output while the
// wedged shard is still stalled.
func TestWedgedShardDropsOnlyItsOwnStreams(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	var out syncBuffer
	var wedgedIdx int // set before any stream runs; read by the hook
	s := New(Config{
		Shards:       2,
		EventBuffer:  2,
		WriteTimeout: 50 * time.Millisecond,
		Output:       &out,
		beforeFlush: func(shard int) {
			if shard == wedgedIdx {
				<-release
			}
		},
	})
	defer shutdown(t, s)

	// Ingest assigns sequential ids; the first stream's shard is the one
	// we wedge, then we walk ids until one lands on the other shard.
	wedgedIdx = s.shardFor(1).idx
	capture := synthCapture(t, 5000, 3)

	wedged := s.Ingest("test", "wedged", bytes.NewReader(capture))
	if wedged.Status != StatusClean || wedged.Records != 5000 {
		t.Fatalf("ingestion must complete despite its wedged shard: %+v", wedged)
	}
	if wedged.EventsDropped == 0 {
		t.Fatal("wedged shard's stream reported no dropped events")
	}

	// Streams that hash onto the wedged shard also drop (cheaply: tiny
	// input, few events); the first to land on the healthy shard must
	// come through untouched.
	var healthy StreamSummary
	for {
		nextID := s.nextID.Load() + 1
		if s.shardFor(nextID).idx == wedgedIdx {
			_ = s.Ingest("test", "burn", bytes.NewReader(nil))
			continue
		}
		healthy = s.Ingest("test", "healthy", bytes.NewReader(capture))
		break
	}
	if healthy.Status != StatusClean || healthy.Records != 5000 {
		t.Fatalf("healthy-shard stream: %+v", healthy)
	}
	if healthy.EventsDropped != 0 {
		t.Fatalf("healthy shard dropped %d events while its neighbor was wedged", healthy.EventsDropped)
	}

	// The wedged shard never flushed, so the output holds exactly the
	// healthy stream's events — complete and in per-stream order.
	var got []Event
	for _, ev := range parseEvents(t, out.Lines()) {
		if ev.Stream != healthy.ID {
			t.Fatalf("event from stream %d reached the output through a wedged shard", ev.Stream)
		}
		got = append(got, ev)
	}
	if len(got) < 3 || got[0].Type != EventStreamStart || got[len(got)-1].Type != EventStreamEnd {
		t.Fatalf("healthy stream's event envelope incomplete: %d events", len(got))
	}
	for i, ev := range got[1 : len(got)-1] {
		if ev.Type != EventFinding || ev.Seq != uint64(i+1) {
			t.Fatalf("healthy stream order broken at %d: %+v", i, ev)
		}
	}
	if uint64(len(got)-2) != healthy.Findings {
		t.Fatalf("healthy stream delivered %d findings, summary says %d", len(got)-2, healthy.Findings)
	}

	// Per-shard accounting: drops on the wedged row only.
	snap := s.Snapshot()
	if len(snap.Shards) != 2 {
		t.Fatalf("want 2 shard rows, got %d", len(snap.Shards))
	}
	for _, row := range snap.Shards {
		if row.Shard == wedgedIdx && row.EventsDropped == 0 {
			t.Fatalf("wedged shard row shows no drops: %+v", row)
		}
		if row.Shard != wedgedIdx && row.EventsDropped != 0 {
			t.Fatalf("healthy shard row shows drops: %+v", row)
		}
	}
	if snap.EventsDropped == 0 {
		t.Fatal("folded events_dropped empty")
	}
	close(release)
}

// TestSnapshotFoldsShardCounters checks the folded aggregate equals the
// sum of the shard rows for every counter the shards own — the
// schema-compat contract: old fields keep their totals, the shards
// section is a decomposition of them.
func TestSnapshotFoldsShardCounters(t *testing.T) {
	var out syncBuffer
	s := New(Config{Shards: 4, Output: &out})
	defer shutdown(t, s)
	for i := 0; i < 8; i++ {
		capture := synthCapture(t, 500+100*i, int64(20+i))
		if sum := s.Ingest("test", "fold", bytes.NewReader(capture)); sum.Status != StatusClean {
			t.Fatalf("stream %d: %+v", i, sum)
		}
	}
	snap := s.Snapshot()
	if len(snap.Shards) != 4 {
		t.Fatalf("want 4 shard rows, got %d", len(snap.Shards))
	}
	var records, bytesTotal, events, dropped, total uint64
	var ingestCount uint64
	for _, row := range snap.Shards {
		records += row.Records
		bytesTotal += row.Bytes
		events += row.EventsEmitted
		dropped += row.EventsDropped
		total += row.StreamsTotal
		ingestCount += row.IngestLatency.Count
	}
	if records != snap.Records || bytesTotal != snap.Bytes || events != snap.EventsEmitted ||
		dropped != snap.EventsDropped || total != snap.StreamsTotal {
		t.Fatalf("shard rows do not sum to the folded totals:\nrows: rec=%d bytes=%d ev=%d drop=%d total=%d\nfold: %+v",
			records, bytesTotal, events, dropped, total, snap)
	}
	if ingestCount != snap.IngestLatency.Count {
		t.Fatalf("folded ingest histogram count %d, shard rows sum %d", snap.IngestLatency.Count, ingestCount)
	}
	if snap.StreamsTotal != 8 || snap.Records == 0 {
		t.Fatalf("fixture totals wrong: %+v", snap)
	}
}

// TestQueuesHoldAtMostTheirEventBound pins what EventBuffer and
// PersistBuffer mean now that findings cross the queues as burst
// chunks: a bound on finding events, not on queue items. It wedges a
// shard's writer (then its persist goroutine) during a dense ingest,
// counts what the stalled queue accepted, and requires that to fit the
// bound; with the writer released, every finding must be accounted as
// a written line or a counted drop.
func TestQueuesHoldAtMostTheirEventBound(t *testing.T) {
	// Every configured event bound: chunk x items never exceeds it.
	for _, n := range []int{1, 2, 3, 15, 16, 17, 255, 256, 257, 1000, 8192, 8193} {
		s := New(Config{Shards: 1, EventBuffer: n})
		sh := s.shards[0]
		if got := cap(sh.events) * sh.eventChunk; got > n || got == 0 {
			t.Errorf("EventBuffer %d: event queue holds up to %d finding events", n, got)
		}
		shutdown(t, s)
	}

	// Each subtest first wedges the consumer on a lone event emitted
	// ahead of the stream, so the stream's every event meets a stalled
	// queue.
	t.Run("events", func(t *testing.T) {
		const bound = 64
		capture := synthDense(t, 4000, 11)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		var out syncBuffer
		s := New(Config{
			Shards: 1, EventBuffer: bound, WriteTimeout: 5 * time.Millisecond, Output: &out,
			beforeFlush: func(int) { once.Do(func() { close(entered); <-release }) },
		})
		s.emit(nil, Event{Type: EventStreamRejected, Stream: 1 << 40})
		<-entered
		sum := s.Ingest("test", "wedged", bytes.NewReader(capture))
		if sum.Findings < 4*bound {
			t.Fatalf("fixture too sparse: %d findings", sum.Findings)
		}
		lines := int(sum.Findings) + 2 // and the stream-start and stream-end
		if accepted := lines - int(sum.EventsDropped); accepted > bound {
			t.Fatalf("wedged event queue accepted %d events, bound %d", accepted, bound)
		}
		close(release)
		shutdown(t, s)
		written := len(filterLines(out.Lines(), `"stream":`)) - 1
		if snap := s.Snapshot(); uint64(written+1) != snap.EventsEmitted || snap.EventsDropped != sum.EventsDropped {
			t.Fatalf("%d lines written, snapshot emitted %d dropped %d, stream dropped %d",
				written, snap.EventsEmitted, snap.EventsDropped, sum.EventsDropped)
		}
		if written+int(sum.EventsDropped) != lines {
			t.Fatalf("%d lines written + %d dropped != %d events", written, sum.EventsDropped, lines)
		}
	})

	t.Run("persist", func(t *testing.T) {
		const bound = 512
		capture := synthDense(t, 16000, 11)
		store := openTestStore(t)
		entered, release := make(chan struct{}), make(chan struct{})
		var once sync.Once
		s := New(Config{
			Shards: 1, PersistBuffer: bound, Store: store, MetricsEvery: -1,
			beforePersist: func(int) { once.Do(func() { close(entered); <-release }) },
		})
		s.emit(nil, Event{Type: EventStreamEnd, Stream: 1 << 40})
		<-entered
		sum := s.Ingest("test", "wedged", bytes.NewReader(capture))
		if sum.Findings < 2*bound {
			t.Fatalf("fixture too sparse: %d findings", sum.Findings)
		}
		events := int(sum.Findings) + 1 // and the stream-end
		accepted := events - int(s.Snapshot().Persist.Dropped)
		if accepted > bound {
			t.Fatalf("wedged persist queue accepted %d events, bound %d", accepted, bound)
		}
		close(release)
		shutdown(t, s)
		stored := len(queryAll(t, store, SeriesFindings)) + len(queryAll(t, store, SeriesEnds)) - 1
		snap := s.Snapshot()
		if stored != accepted || uint64(stored+1) != snap.Persist.Appended {
			t.Fatalf("stored %d of %d events, %d accepted; persist accounting %+v", stored, events, accepted, snap.Persist)
		}
	})
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}
