package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/bt"
	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/tsdb"
)

// tsdbRecords is the finding count for the deterministic store smoke:
// one synthetic finding per millisecond across a ~17-minute span, so
// retention and the time-indexed segment directory have real work to
// do. Store performance numbers come from bash bench/run.sh (the tsdb.*
// rows).
const tsdbRecords = 1_000_000

// tsdbBurst is how many findings share one AppendBatch, one stream key
// and one stamp, as a drained burst does in the daemon; burst j is
// stamped at the millisecond of its first finding. It divides
// tsdbRecords and the final-minute window.
const tsdbBurst = 16

// tsdbFinding returns the i-th synthetic finding as the live detector
// would emit it.
func tsdbFinding(i int) forensics.Event {
	at := tsdbBase.Add(time.Duration(i) * time.Millisecond)
	kinds := [...]string{forensics.FindingPageBlocking, forensics.FindingSilentRepairing, forensics.FindingKeyTypeDowngrade}
	return forensics.Event{
		Seq:   uint64(i + 1),
		Frame: 7*i + 1,
		Time:  at,
		Finding: forensics.Finding{
			Kind:   kinds[i%len(kinds)],
			Frame:  7*i + 1,
			Handle: bt.ConnHandle(i % 4096),
			Peer:   bt.BDADDR{0x5a, 0x3c, byte(i >> 16), byte(i >> 8), byte(i), byte(i % 16)},
		},
	}
}

// tsdbBase is the fixed epoch the smoke timeline starts at; finding i
// lands at tsdbBase + i milliseconds. Nothing here reads the wall
// clock, which is what makes the smoke byte-reproducible.
var tsdbBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// runTSDBSmoke is the deterministic store check scripts/verify.sh runs
// twice and compares: append 1M findings on a fixed timeline, as the
// daemon stores them (48-byte records, one AppendBatch per burst), seal
// and retention-compact with a fixed clock, query back, and print
// counts plus a digest of every byte in the store directory. Nothing
// reads the wall clock, so two runs must print identical lines — any
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
	for first := 0; first < tsdbRecords; first += tsdbBurst {
		buf = buf[:0]
		for i := first; i < first+tsdbBurst; i++ {
			ev := tsdbFinding(i)
			var ok bool
			if buf, ok = sentinel.AppendFindingRecord(buf, &ev); !ok {
				return fmt.Errorf("tsdbsmoke: finding %d has no record form", i)
			}
		}
		key := uint64(first/tsdbBurst%16 + 1)
		if _, err := store.AppendBatch(sentinel.SeriesFindings, tsAt(first), key, buf, sentinel.FindingRecordSize); err != nil {
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
	err = store.Query(sentinel.SeriesFindings, 0, tsAt(tsdbRecords-1), tsdb.KeyAny, func(fr tsdb.Frame) error {
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
	err = store.Query(sentinel.SeriesFindings, tsAt(tsdbRecords-60_000), tsAt(tsdbRecords-1), tsdb.KeyAny, func(tsdb.Frame) error {
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
