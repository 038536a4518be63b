package sentinel

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

// encoderFixtures is every Event type with its fields populated the way
// the daemon populates them, plus adversarial string content: JSON
// metacharacters, control bytes (including \b and \f, which
// encoding/json renders with short escapes), HTML-escaped <>&, invalid
// UTF-8 (rendered as an escaped replacement char), the JS line
// separators U+2028/U+2029, multi-byte runes, and negative numbers.
var encoderFixtures = []Event{
	{Type: EventStreamStart, Stream: 1, Proto: "tcp", Label: "127.0.0.1:52113"},
	{Type: EventStreamStart, Stream: 18446744073709551615, Proto: "unix", Label: "unix",
		TS: "2026-08-08T12:00:00.000000001Z"},
	{
		Type: EventFinding, Stream: 7, Seq: 3, Frame: 4521,
		Kind: "link-key-extraction", Peer: "AA:BB:CC:DD:EE:FF",
		Detail:    "HCI_Read_Stored_Link_Key burst",
		CaptureTS: "2026-08-08T12:00:00.123456789Z",
		TS:        "2026-08-08T12:00:00.223456789Z",
	},
	{
		Type: EventStreamEnd, Stream: 7, Proto: "tcp", Label: "phone",
		Session: "phone-7",
		TS:      "2026-08-08T12:00:01Z",
		Status:  StatusClean, Offset: 52095345, Records: 1000000,
		Bytes: 52095345, Findings: 41, EventsDropped: 2,
	},
	{
		Type: EventStreamEnd, Stream: 9, Status: StatusBadFraming,
		Offset: -1, Records: -1, Bytes: -9, // negative ints through AppendInt
		Error: "snoop: bad framing at offset 16",
	},
	{Type: EventStreamRejected, Stream: 65, Proto: "tcp", Label: "10.0.0.9:1", Error: "stream cap 64 reached"},
	{Type: EventSessionParked, Stream: 12, Session: "weird \"session\" \xffid", Offset: 4096},
	{Type: EventSessionResumed, Stream: 12, Session: "phone-12", Label: "127.0.0.1:9", Offset: 4096},
	{Type: EventSessionExpired, Stream: 12, Session: "phone-12", Offset: 4096},
	{Type: EventCheckpoint, Stream: 12, Session: "phone-12", Offset: 8 << 20, Frame: 150000},
	{Type: EventStreamEnd, Stream: 13, Session: "s", Status: StatusPanic,
		Offset: 77, Error: "panic: index out of range"},
	{Type: EventStreamEnd, Stream: 14, Session: "s2", Status: StatusAborted, Offset: 99},
	{Type: EventFinding, Stream: 2, Seq: 1, Frame: 1, Kind: "quote\"back\\slash", Detail: "tabs\tand\nnewlines\rhere",
		TS: "ts with \"quotes\" and \xffbad bytes"},
	{Type: EventFinding, Stream: 2, Seq: 2, Frame: 2, Kind: "ctrl\b\f\x00\x1f", Detail: "html <b>&amp;</b>"},
	{Type: EventFinding, Stream: 2, Seq: 3, Frame: 3, Kind: "bad\xffutf8\xc3(", Detail: "seps\u2028and\u2029here"},
	{Type: EventFinding, Stream: 2, Seq: 4, Frame: 4, Kind: "日本語 ünïcode ✓", Detail: "� literal replacement"},
	{Type: EventStreamEnd, Stream: 3}, // everything omitempty at once
}

// TestAppendJSONMatchesEncodingJSON pins the append-style encoder's
// contract: for every Event the daemon can emit — every type, every
// field, every escaping edge case — appendJSON must produce the exact
// bytes json.Marshal produces, and those bytes must round-trip back to
// the same Event. The shard writers rely on this identity to replace
// per-event json.Marshal without changing one byte of the JSONL stream.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	check := func(ev Event) {
		t.Helper()
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", ev, err)
		}
		got := ev.appendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("appendJSON diverges from encoding/json:\nevent: %+v\n got: %s\nwant: %s", ev, got, want)
		}
		// Reused-buffer discipline: appending after existing content must
		// not disturb it (the shard writer encodes into a shared buffer).
		buf := append([]byte("prefix|"), ev.appendJSON(nil)...)
		if !bytes.HasPrefix(buf, []byte("prefix|")) || !bytes.HasSuffix(buf, want) {
			t.Fatalf("appendJSON corrupted the shared buffer: %s", buf)
		}
		var back Event
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("round-trip unmarshal of %s: %v", got, err)
		}
		// Invalid UTF-8 is replaced during encoding (one U+FFFD per bad
		// byte, exactly as encoding/json does), so the round-trip target
		// is the sanitized event, not the raw one.
		if wantBack := sanitizeEvent(ev); back != wantBack {
			t.Fatalf("round-trip changed the event:\n got:  %+v\n want: %+v", back, wantBack)
		}
	}
	for _, ev := range encoderFixtures {
		check(ev)
	}

	// Randomized sweep over nasty strings and extreme numbers.
	rng := rand.New(rand.NewSource(7))
	alphabet := []string{
		"a", "Z", "0", " ", `"`, `\`, "<", ">", "&", "\n", "\r", "\t", "\b", "\f",
		"\x00", "\x1f", "\x7f", "\xff", "\xc3", "\xc3\xa9", "\u2028", "\u2029",
		"語", "✓", "�",
	}
	randStr := func() string {
		var b []byte
		for n := rng.Intn(20); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		check(Event{
			Type:   randStr(),
			Stream: rng.Uint64(),
			Proto:  randStr(), Label: randStr(), Session: randStr(), TS: randStr(),
			Seq: rng.Uint64() >> uint(rng.Intn(64)), Frame: int(int32(rng.Uint32())),
			Kind: randStr(), Peer: randStr(), Detail: randStr(), CaptureTS: randStr(),
			Status: randStr(), Offset: int64(rng.Uint64()), Records: int(int32(rng.Uint32())),
			Bytes: int64(rng.Uint64()), Findings: rng.Uint64(), EventsDropped: rng.Uint64(),
			Error: randStr(),
		})
	}
}

// sanitizeEvent maps every string field the way JSON encoding does:
// each invalid UTF-8 byte becomes one U+FFFD replacement character.
func sanitizeEvent(ev Event) Event {
	fix := func(s string) string {
		if utf8.ValidString(s) {
			return s
		}
		var b []byte
		for i := 0; i < len(s); {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				b = append(b, "�"...)
			} else {
				b = append(b, s[i:i+size]...)
			}
			i += size
		}
		return string(b)
	}
	ev.Type = fix(ev.Type)
	ev.Proto = fix(ev.Proto)
	ev.Label = fix(ev.Label)
	ev.Session = fix(ev.Session)
	ev.TS = fix(ev.TS)
	ev.Kind = fix(ev.Kind)
	ev.Peer = fix(ev.Peer)
	ev.Detail = fix(ev.Detail)
	ev.CaptureTS = fix(ev.CaptureTS)
	ev.Status = fix(ev.Status)
	ev.Error = fix(ev.Error)
	return ev
}

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
