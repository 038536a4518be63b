package tsdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// fixedClock returns a deterministic Options.Now.
func fixedClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}

var t0 = time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)

func openTest(t *testing.T, dir string, mut func(*Options)) *Store {
	t.Helper()
	opts := Options{
		Dir:          dir,
		CompactEvery: -1, // tests drive Compact explicitly
		SyncEvery:    -1,
		Now:          fixedClock(t0),
	}
	if mut != nil {
		mut(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func collect(t *testing.T, s *Store, series string, since, until int64, key uint64) []Frame {
	t.Helper()
	var out []Frame
	err := s.Query(series, since, until, key, func(fr Frame) error {
		data := make([]byte, len(fr.Data))
		copy(data, fr.Data)
		out = append(out, Frame{TS: fr.TS, Key: fr.Key, Data: data})
		return nil
	})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	return out
}

func TestAppendQueryRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	base := t0.UnixNano()
	for i := 0; i < 100; i++ {
		data := []byte(fmt.Sprintf(`{"seq":%d}`, i))
		if err := s.Append("findings", base+int64(i), uint64(1+i%4), data); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got := collect(t, s, "findings", 0, base+1000, KeyAny)
	if len(got) != 100 {
		t.Fatalf("got %d frames, want 100", len(got))
	}
	for i, fr := range got {
		if fr.TS != base+int64(i) {
			t.Fatalf("frame %d: ts %d, want %d", i, fr.TS, base+int64(i))
		}
		if want := fmt.Sprintf(`{"seq":%d}`, i); string(fr.Data) != want {
			t.Fatalf("frame %d: data %q, want %q", i, fr.Data, want)
		}
		if fr.Key != uint64(1+i%4) {
			t.Fatalf("frame %d: key %d, want %d", i, fr.Key, 1+i%4)
		}
	}
}

func TestQueryKeyAndWindowFilter(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	base := t0.UnixNano()
	for i := 0; i < 60; i++ {
		if err := s.Append("ends", base+int64(i)*1e9, uint64(1+i%3), []byte{byte(i)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Key filter: every third frame has key 2.
	byKey := collect(t, s, "ends", 0, base+100e9, 2)
	if len(byKey) != 20 {
		t.Fatalf("key filter: got %d frames, want 20", len(byKey))
	}
	for _, fr := range byKey {
		if fr.Key != 2 {
			t.Fatalf("key filter leaked key %d", fr.Key)
		}
	}
	// Window: seconds [10, 19] inclusive.
	win := collect(t, s, "ends", base+10e9, base+19e9, KeyAny)
	if len(win) != 10 {
		t.Fatalf("window: got %d frames, want 10", len(win))
	}
	if win[0].Data[0] != 10 || win[9].Data[0] != 19 {
		t.Fatalf("window edges wrong: %d..%d", win[0].Data[0], win[9].Data[0])
	}
	// Unknown series: no frames, no error.
	if got := collect(t, s, "nope", 0, base+100e9, KeyAny); len(got) != 0 {
		t.Fatalf("unknown series returned %d frames", len(got))
	}
}

func TestSegmentRollAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	base := t0.UnixNano()
	payload := bytes.Repeat([]byte("x"), 100)
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Append("findings", base+int64(i), 7, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st := s.Stats()["findings"]
	if st.Segments < 3 {
		t.Fatalf("expected >=3 segments after roll, got %d", st.Segments)
	}
	if st.Frames != n {
		t.Fatalf("stats frames %d, want %d", st.Frames, n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: everything survives, and appends continue in the tail.
	s2 := openTest(t, dir, func(o *Options) { o.SegmentBytes = 1 << 10 })
	if got := collect(t, s2, "findings", 0, base+1e9, KeyAny); len(got) != n {
		t.Fatalf("after reopen: %d frames, want %d", len(got), n)
	}
	if err := s2.Append("findings", base+int64(n), 7, payload); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := collect(t, s2, "findings", 0, base+1e9, KeyAny); len(got) != n+1 {
		t.Fatalf("after reopen+append: %d frames, want %d", len(got), n+1)
	}
}

func TestQuerySkipsNonOverlappingSegments(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 1 << 10 })
	base := t0.UnixNano()
	payload := bytes.Repeat([]byte("y"), 200)
	for i := 0; i < 40; i++ {
		if err := s.Append("findings", base+int64(i)*1e9, 1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Delete the files of segments outside the queried window; if Query
	// correctly prunes by [minTS, maxTS] it never notices.
	s.mu.Lock()
	sr := s.series["findings"]
	s.mu.Unlock()
	sr.mu.Lock()
	if sr.bw != nil {
		sr.bw.Flush()
	}
	since, until := base+35*1e9, base+39*1e9
	for _, g := range sr.segs {
		if g != sr.active && !g.overlaps(since, until) {
			os.Rename(g.path, g.path+".hidden")
		}
	}
	sr.mu.Unlock()
	got := collect(t, s, "findings", since, until, KeyAny)
	if len(got) != 5 {
		t.Fatalf("pruned query: %d frames, want 5", len(got))
	}
	// Restore so Close/cleanup sees a sane directory.
	sr.mu.Lock()
	for _, g := range sr.segs {
		os.Rename(g.path+".hidden", g.path)
	}
	sr.mu.Unlock()
}

func TestRetentionCompaction(t *testing.T) {
	now := t0
	s := openTest(t, t.TempDir(), func(o *Options) {
		o.SegmentBytes = 1 << 10
		o.Retention = time.Hour
		o.Now = func() time.Time { return now }
	})
	payload := bytes.Repeat([]byte("z"), 200)
	old := t0.Add(-3 * time.Hour).UnixNano()
	fresh := t0.Add(-time.Minute).UnixNano()
	for i := 0; i < 20; i++ {
		if err := s.Append("findings", old+int64(i), 1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := s.Append("findings", fresh+int64(i), 1, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	before := s.Stats()["findings"]
	stats, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.SegmentsDeleted == 0 || stats.FramesDropped == 0 {
		t.Fatalf("compaction deleted nothing: %+v (before: %+v)", stats, before)
	}
	got := collect(t, s, "findings", 0, t0.UnixNano(), KeyAny)
	for _, fr := range got {
		if fr.TS < t0.Add(-time.Hour).UnixNano() {
			t.Fatalf("aged frame survived retention: ts %d", fr.TS)
		}
	}
	if len(got) < 20 {
		t.Fatalf("retention ate fresh frames: %d left, want >=20", len(got))
	}
	// A second pass is a no-op.
	stats2, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact 2: %v", err)
	}
	if stats2.SegmentsDeleted != 0 {
		t.Fatalf("second compaction deleted %d segments", stats2.SegmentsDeleted)
	}
}

func TestRetentionNeverTouchesActiveSegment(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.Retention = time.Hour })
	old := t0.Add(-3 * time.Hour).UnixNano()
	if err := s.Append("findings", old, 1, []byte("keep")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	stats, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.SegmentsDeleted != 0 {
		t.Fatalf("compaction deleted the active segment")
	}
	if got := collect(t, s, "findings", 0, t0.UnixNano(), KeyAny); len(got) != 1 {
		t.Fatalf("active frame lost: %d frames", len(got))
	}
}

// sumDoc is the trivial mergeable payload used by downsampling tests:
// an 8-byte LE counter; merging sums the counters.
func sumMerge(window []Frame) (Frame, error) {
	var total uint64
	for _, fr := range window {
		total += binary.LittleEndian.Uint64(fr.Data)
	}
	var data [8]byte
	binary.LittleEndian.PutUint64(data[:], total)
	return Frame{TS: window[len(window)-1].TS, Key: window[0].Key, Data: data[:]}, nil
}

func TestDownsampling(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) {
		o.SegmentBytes = 1 << 10
		o.Downsample = map[string]Downsampler{
			"hist": {After: time.Hour, Window: 10 * time.Second, Merge: sumMerge},
		}
	})
	// 60 one-per-second frames, all older than After, each counting 1.
	base := t0.Add(-2 * time.Hour).UnixNano()
	var one [8]byte
	binary.LittleEndian.PutUint64(one[:], 1)
	for i := 0; i < 60; i++ {
		if err := s.Append("hist", base+int64(i)*1e9, 0, one[:]); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Seal the active segment so the whole series is eligible: roll by
	// appending a fresh frame after forcing a seal via size is fiddly, so
	// close and reopen — reopened tails stay appendable but the test only
	// needs the *sealed* segments downsampled.
	sealedFrames := func() int {
		st := s.Stats()["hist"]
		return st.Frames
	}
	before := sealedFrames()
	stats, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if stats.SegmentsDownsampled == 0 || stats.FramesMerged == 0 {
		t.Fatalf("downsampling did nothing: %+v (frames before %d)", stats, before)
	}
	after := sealedFrames()
	if after >= before {
		t.Fatalf("downsampling did not shrink: %d -> %d", before, after)
	}
	// The counters must be conserved: total across merged frames == 60.
	var total uint64
	for _, fr := range collect(t, s, "hist", 0, t0.UnixNano(), KeyAny) {
		total += binary.LittleEndian.Uint64(fr.Data)
	}
	if total != 60 {
		t.Fatalf("merge lost data: total %d, want 60", total)
	}
	// Downsampled segments are flagged on disk and not re-downsampled.
	stats2, err := s.Compact()
	if err != nil {
		t.Fatalf("Compact 2: %v", err)
	}
	if stats2.SegmentsDownsampled != 0 {
		t.Fatalf("re-downsampled already-coarse segments: %+v", stats2)
	}
	// Survives reopen: the flag is in the header, not just memory.
	s.Close()
	s2 := openTest(t, dir, func(o *Options) {
		o.SegmentBytes = 1 << 10
		o.Downsample = map[string]Downsampler{
			"hist": {After: time.Hour, Window: 10 * time.Second, Merge: sumMerge},
		}
	})
	stats3, err := s2.Compact()
	if err != nil {
		t.Fatalf("Compact 3: %v", err)
	}
	if stats3.SegmentsDownsampled != 0 {
		t.Fatalf("downsampled flag lost across reopen: %+v", stats3)
	}
	var total2 uint64
	for _, fr := range collect(t, s2, "hist", 0, t0.UnixNano(), KeyAny) {
		total2 += binary.LittleEndian.Uint64(fr.Data)
	}
	if total2 != 60 {
		t.Fatalf("reopen after downsample lost data: total %d, want 60", total2)
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.SegmentBytes = 4 << 10 })
	base := t0.UnixNano()
	const perSeries = 2000
	var wg sync.WaitGroup
	for _, name := range []string{"findings", "ends", "hist"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perSeries; i++ {
				if err := s.Append(name, base+int64(i), uint64(1+i%8), []byte(name)); err != nil {
					t.Errorf("Append %s: %v", name, err)
					return
				}
			}
		}(name)
	}
	// Concurrent readers racing the writers: counts may be partial but
	// frames must never be corrupt.
	var rg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Query("findings", 0, base+perSeries, KeyAny, func(fr Frame) error {
					if string(fr.Data) != "findings" {
						t.Errorf("corrupt frame data %q", fr.Data)
					}
					return nil
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	for _, name := range []string{"findings", "ends", "hist"} {
		if got := collect(t, s, name, 0, base+perSeries, KeyAny); len(got) != perSeries {
			t.Fatalf("%s: %d frames, want %d", name, len(got), perSeries)
		}
	}
}

func TestBadSeriesName(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	for _, bad := range []string{"", "a/b", "..", "x y", "série"} {
		if err := s.Append(bad, 1, 0, []byte("x")); err == nil {
			t.Fatalf("series name %q accepted", bad)
		}
	}
}

func TestOpenRemovesStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	if err := s.Append("findings", t0.UnixNano(), 1, []byte("x")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Close()
	tmp := filepath.Join(dir, "findings", "00000001.seg.tmp")
	if err := os.WriteFile(tmp, []byte("garbage from a dead compactor"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, nil)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open: %v", err)
	}
	if got := collect(t, s2, "findings", 0, t0.UnixNano(), KeyAny); len(got) != 1 {
		t.Fatalf("reopen with temp garbage lost data: %d frames", len(got))
	}
}

func TestCloseIdempotentAndAppendAfterClose(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Append("findings", 1, 0, []byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// TestDiskFullSurfacesAndPreservesPrefix drives the WrapWriter fault
// seam with a faults.FullWriter: once the simulated volume fills, Sync
// must surface ErrDiskFull to the caller, and everything durably synced
// before the fault must survive a reopen byte-for-byte — the torn-tail
// discipline under ENOSPC instead of a crash.
func TestDiskFullSurfacesAndPreservesPrefix(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Dir:          dir,
		CompactEvery: -1,
		SyncEvery:    -1,
		Now:          fixedClock(t0),
		WrapWriter: func(series string, w io.Writer) io.Writer {
			return &faults.FullWriter{W: w, N: 200}
		},
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	base := t0.UnixNano()
	synced := 0
	var full error
	for i := 0; i < 100; i++ {
		if err := s.Append("findings", base+int64(i), 1, []byte(fmt.Sprintf(`{"seq":%d}`, i))); err != nil {
			full = err
			break
		}
		if err := s.Sync(); err != nil {
			full = err
			break
		}
		synced++
	}
	if !errors.Is(full, faults.ErrDiskFull) {
		t.Fatalf("filled volume surfaced %v, want ErrDiskFull", full)
	}
	if synced == 0 || synced >= 100 {
		t.Fatalf("fault fired after %d synced frames; want mid-run", synced)
	}
	s.Close() // errors expected — the volume is still full

	// Reopen without the fault: the synced prefix survives intact.
	r := openTest(t, dir, nil)
	got := collect(t, r, "findings", 0, base+1000, KeyAny)
	if len(got) != synced {
		t.Fatalf("recovered %d frames, want %d", len(got), synced)
	}
	for i, fr := range got {
		if want := fmt.Sprintf(`{"seq":%d}`, i); string(fr.Data) != want {
			t.Fatalf("frame %d: data %q, want %q", i, fr.Data, want)
		}
	}
}

// TestSyncSeries: the single-series durability point flushes the named
// series' buffered frames to its segment file without touching other
// series, and syncing an unknown series is a no-op.
func TestSyncSeries(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	if err := s.Append("ckpt", 10, 1, []byte("state-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("findings", 11, 1, []byte("finding-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncSeries("ckpt"); err != nil {
		t.Fatalf("SyncSeries: %v", err)
	}
	if err := s.SyncSeries("no-such-series"); err != nil {
		t.Fatalf("SyncSeries on unknown series: %v", err)
	}
	// The ckpt frame must be on disk now: read the active segment file
	// directly, without closing the store (a crash would do neither).
	segs, err := filepath.Glob(filepath.Join(dir, "ckpt", "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("ckpt segments: %v %v", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("state-1")) {
		t.Fatalf("ckpt segment does not contain the synced frame (%d bytes)", len(raw))
	}
}

// TestAppendBatchMatchesAppend: batches that cross SegmentBytes, several
// times within one batch, leave segment files byte-identical to the
// same frames appended one by one, and a batch whose bytes are not a
// whole number of frames is refused before anything is written.
func TestAppendBatchMatchesAppend(t *testing.T) {
	const stride = 40 // 64-byte frames, 15 to a 1000-byte segment
	small := func(o *Options) { o.SegmentBytes = 1000 }
	batchDir, oneDir := t.TempDir(), t.TempDir()
	batch, one := openTest(t, batchDir, small), openTest(t, oneDir, small)
	base := t0.UnixNano()
	seq := 0
	for b, n := range []int{7, 30, 1, 0, 50, 15, 16} {
		ts, key := base+int64(b), uint64(b%3+1)
		var data []byte
		for j := 0; j < n; j++ {
			rec := fmt.Appendf(nil, "frame %06d", seq)
			data = append(data, append(rec, bytes.Repeat([]byte{'.'}, stride-len(rec))...)...)
			seq++
		}
		if got, err := batch.AppendBatch("findings", ts, key, data, stride); err != nil || got != n {
			t.Fatalf("batch %d: AppendBatch wrote %d of %d: %v", b, got, n, err)
		}
		for off := 0; off < len(data); off += stride {
			if err := one.Append("findings", ts, key, data[off:off+stride]); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, bad := range []struct {
		data   []byte
		stride int
	}{{make([]byte, 50), stride}, {make([]byte, 40), 0}, {make([]byte, 40), -40}} {
		if n, err := batch.AppendBatch("findings", base, 1, bad.data, bad.stride); err == nil || n != 0 {
			t.Fatalf("AppendBatch of %d bytes at stride %d wrote %d frames, err %v", len(bad.data), bad.stride, n, err)
		}
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(dir string) map[string][]byte {
		paths, err := filepath.Glob(filepath.Join(dir, "findings", "*"))
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte, len(paths))
		for _, p := range paths {
			if files[filepath.Base(p)], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	got, want := read(batchDir), read(oneDir)
	if len(want) < 8 || len(got) != len(want) {
		t.Fatalf("%d segment files from batches, %d one by one (want several)", len(got), len(want))
	}
	for name, w := range want {
		if !bytes.Equal(got[name], w) {
			t.Fatalf("segment %s differs: %d bytes from batches, %d one by one", name, len(got[name]), len(w))
		}
	}
}

// TestFixedClockStoreIsByteDeterministic: under a fixed clock a store is
// a function of its appends alone. Two stores built from the same
// appends (finding-sized records in AppendBatch bursts, a downsampled
// series beside them, segment rolls, then one retention and
// downsampling pass) must hold byte-identical files and answer queries
// identically. The store never stamps data itself, so a difference
// means the wall clock or a map's iteration order reached a segment.
func TestFixedClockStoreIsByteDeterministic(t *testing.T) {
	const (
		records = 30_000 // one finding per millisecond, ending at the clock
		burst   = 16     // findings per AppendBatch, sharing a key and stamp
		stride  = 48     // the daemon's stored finding record size
		window  = 2_000  // the final-window query, in records
	)
	at := func(i int) int64 { return t0.Add(time.Duration(i-records) * time.Millisecond).UnixNano() }
	build := func(dir string) (CompactStats, []Frame, int) {
		s := openTest(t, dir, func(o *Options) {
			o.SegmentBytes = 32 << 10
			o.Retention = 20 * time.Second
			o.Downsample = map[string]Downsampler{
				"hist": {After: 5 * time.Second, Window: 250 * time.Millisecond, Merge: sumMerge},
			}
		})
		var buf []byte
		for first := 0; first < records; first += burst {
			buf = buf[:0]
			for i := first; i < first+burst; i++ {
				var rec [stride]byte
				binary.LittleEndian.PutUint64(rec[0:8], uint64(i))
				binary.LittleEndian.PutUint64(rec[8:16], uint64(7*i+1))
				copy(rec[16:], fmt.Sprintf("finding %d", i%3))
				buf = append(buf, rec[:]...)
			}
			key := uint64(first/burst%16 + 1)
			if n, err := s.AppendBatch("findings", at(first), key, buf, stride); err != nil || n != burst {
				t.Fatalf("AppendBatch at %d wrote %d of %d: %v", first, n, burst, err)
			}
			var count [8]byte
			binary.LittleEndian.PutUint64(count[:], uint64(first))
			if err := s.Append("hist", at(first), 0, count[:]); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := s.Compact()
		if err != nil {
			t.Fatalf("Compact: %v", err)
		}
		all := collect(t, s, "findings", 0, at(records), KeyAny)
		all = append(all, collect(t, s, "hist", 0, at(records), KeyAny)...)
		final := len(collect(t, s, "findings", at(records-window), at(records-1), KeyAny))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return stats, all, final
	}
	files := func(dir string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(dir, path)
			if err == nil {
				out[rel], err = os.ReadFile(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	dirA, dirB := t.TempDir(), t.TempDir()
	statsA, framesA, finalA := build(dirA)
	statsB, framesB, finalB := build(dirB)
	if statsA.SegmentsDeleted == 0 || statsA.SegmentsDownsampled == 0 {
		t.Fatalf("compaction deleted %d and downsampled %d segments, want both nonzero",
			statsA.SegmentsDeleted, statsA.SegmentsDownsampled)
	}
	if statsA != statsB {
		t.Fatalf("compaction differs between runs: %+v vs %+v", statsA, statsB)
	}
	if finalA != window || finalB != window {
		t.Fatalf("final window holds %d and %d records, want %d", finalA, finalB, window)
	}
	if len(framesA) != len(framesB) {
		t.Fatalf("queries return %d and %d frames", len(framesA), len(framesB))
	}
	for i := range framesA {
		a, b := framesA[i], framesB[i]
		if a.TS != b.TS || a.Key != b.Key || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("query frame %d differs: %+v vs %+v", i, a, b)
		}
	}
	a, b := files(dirA), files(dirB)
	if len(a) != len(b) {
		t.Fatalf("%d files in one store, %d in the other", len(a), len(b))
	}
	for name, data := range a {
		if other, ok := b[name]; !ok || !bytes.Equal(data, other) {
			t.Fatalf("store file %s differs between runs (%d vs %d bytes)", name, len(data), len(other))
		}
	}
}
