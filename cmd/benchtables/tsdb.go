package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/tsdb"
)

// tsdbRecords is the payload count for the deterministic store smoke:
// one synthetic finding per millisecond across a ~17-minute span, so
// retention and the time-indexed segment directory have real work to
// do. Store performance numbers come from bash bench/run.sh (the tsdb.*
// rows).
const tsdbRecords = 1_000_000

// tsdbPayload appends the i-th synthetic finding line: a small JSONL
// object shaped like a finding event, with the frame timestamp also
// embedded.
func tsdbPayload(buf []byte, ts int64, i int) []byte {
	return fmt.Appendf(buf, `{"ts":%d,"seq":%d,"stream":%d,"kind":"probe","detail":"synthetic finding %d"}`,
		ts, i+1, i%16+1, i)
}

// tsdbBase is the fixed epoch the smoke timeline starts at; payload i
// lands at tsdbBase + i milliseconds. Nothing here reads the wall
// clock, which is what makes the smoke byte-reproducible.
var tsdbBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runTSDBSmoke is the deterministic store check scripts/verify.sh runs
// twice and compares: append 1M findings on a fixed timeline, seal and
// retention-compact with a fixed clock, query back, and print counts
// plus a digest of every byte in the store directory. Nothing reads
// the wall clock, so two runs must print identical lines — any
// divergence means nondeterminism leaked into the segment format or
// the compaction order.
func runTSDBSmoke(dir string) error {
	clock := tsdbBase
	store, err := tsdb.Open(tsdb.Options{
		Dir:          dir,
		SyncEvery:    -1,
		CompactEvery: -1,
		Retention:    10 * time.Minute,
		Now:          func() time.Time { return clock },
	})
	if err != nil {
		return err
	}
	var buf []byte
	tsAt := func(i int) int64 {
		return tsdbBase.Add(time.Duration(i) * time.Millisecond).UnixNano()
	}
	for i := 0; i < tsdbRecords; i++ {
		buf = tsdbPayload(buf[:0], tsAt(i), i)
		if err := store.Append("findings", tsAt(i), uint64(i%16+1), buf); err != nil {
			return err
		}
	}

	// Jump the clock to the end of the timeline: everything more than
	// ten minutes old is now past retention, and sealed segments wholly
	// before the cutoff must be deleted.
	clock = tsdbBase.Add(time.Duration(tsdbRecords) * time.Millisecond)
	stats, err := store.Compact()
	if err != nil {
		return err
	}
	if stats.SegmentsDeleted == 0 {
		return fmt.Errorf("tsdbsmoke: retention deleted no segments over a %s span", clock.Sub(tsdbBase))
	}

	var remaining, window int
	digest := sha256.New()
	err = store.Query("findings", 0, tsAt(tsdbRecords-1), tsdb.KeyAny, func(fr tsdb.Frame) error {
		remaining++
		digest.Write(fr.Data)
		return nil
	})
	if err != nil {
		return err
	}
	if remaining == tsdbRecords || remaining == 0 {
		return fmt.Errorf("tsdbsmoke: retention left %d of %d records", remaining, tsdbRecords)
	}
	err = store.Query("findings", tsAt(tsdbRecords-60_000), tsAt(tsdbRecords-1), tsdb.KeyAny, func(tsdb.Frame) error {
		window++
		return nil
	})
	if err != nil {
		return err
	}
	if window != 60_000 {
		return fmt.Errorf("tsdbsmoke: final-minute window has %d records, want 60000", window)
	}
	if err := store.Close(); err != nil {
		return err
	}

	// Fold every store file into one digest, in sorted path order, so
	// the double-run comparison covers the on-disk bytes, not just the
	// query results.
	var files []string
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(files)
	fileDigest := sha256.New()
	for _, path := range files {
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(fileDigest, "%s\n", rel)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		_, err = io.Copy(fileDigest, f)
		f.Close()
		if err != nil {
			return err
		}
	}

	fmt.Printf("tsdbsmoke: appended=%d deleted_segments=%d frames_dropped=%d remaining=%d window=%d query_digest=%x store_digest=%x\n",
		tsdbRecords, stats.SegmentsDeleted, stats.FramesDropped, remaining, window,
		digest.Sum(nil), fileDigest.Sum(nil))
	return nil
}
