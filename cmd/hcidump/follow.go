package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
)

// tailReader reads from a file that another process may still be
// appending to — the live Android btsnoop log case. On EOF it polls for
// growth with capped exponential backoff: the first empty poll waits
// pollMin, each consecutive empty poll doubles the wait up to pollMax,
// and any delivered byte resets the backoff — so a bursty writer is
// picked up at pollMin latency while a quiet file costs a few wakeups
// per second instead of hundreds. Only after the file has delivered no
// new bytes for idle does it report EOF to the caller. io.ReadFull in
// the snoop scanner then naturally blocks mid-record until the writer
// catches up or goes quiet.
type tailReader struct {
	f       io.Reader
	idle    time.Duration
	pollMin time.Duration
	pollMax time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	deadline := time.Now().Add(t.idle)
	wait := t.pollMin
	for {
		n, err := t.f.Read(p)
		if n > 0 || !errors.Is(err, io.EOF) {
			return n, err
		}
		// Sleep only as long as the idle budget allows: an unclamped
		// backoff sleep could overshoot the deadline by up to pollMax,
		// making a quiet file take idle+pollMax to report EOF instead of
		// ~idle — a real stall with the multi-second poll caps operators
		// use on battery-powered captures.
		remain := time.Until(deadline)
		if remain <= 0 {
			return 0, io.EOF
		}
		sleep := wait
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if wait *= 2; wait > t.pollMax {
			wait = t.pollMax
		}
	}
}

// followFile tails a growing capture through the incremental detector,
// printing findings the moment the records that complete them land in
// the file. pollMax caps the tail's poll backoff (values below the 10 ms
// floor are raised to it). It returns the finished report once the file
// has been idle for the full idle window (the writer stopped), plus the
// scan error if the capture ended mid-record. st (nil for none)
// collects -stats telemetry per record and finding.
//
// ckp, when non-nil, resumes a previous follow: the caller has already
// positioned f at ckp.offset, the scanner continues frame numbering
// from ckp.frame under ckp.datalink, and the detector is restored from
// the snapshotted state — findings across the restart are identical to
// an uninterrupted follow, and the returned report is cumulative. On a
// clean end the next checkpoint (scan position + drained detector
// state) comes back for the caller to persist; it is nil after a scan
// error, because a checkpoint taken mid-record could not be resumed.
func followFile(f io.Reader, idle, pollMax time.Duration, out io.Writer, st *scanStats, ckp *followCheckpoint) (*forensics.Report, *followCheckpoint, error) {
	const pollMin = 10 * time.Millisecond
	if pollMax < pollMin {
		pollMax = pollMin
	}
	tail := &tailReader{f: f, idle: idle, pollMin: pollMin, pollMax: pollMax}
	det := forensics.NewDetector()
	var sc *snoop.BatchScanner
	if ckp != nil {
		if err := det.RestoreState(ckp.state); err != nil {
			return nil, nil, err
		}
		sc = snoop.ResumeBatchScanner(tail, 256<<10, ckp.offset, int(ckp.frame), ckp.datalink)
	} else {
		sc = snoop.NewBatchScannerSize(tail, 256<<10)
	}
	var b snoop.RecordBatch
	var text []byte // reused finding text, rendered by AppendDetail
	for sc.ScanBatch(&b) {
		// Push every record, not PushKept: the detector's frame count is
		// part of the checkpoint, and a resumed follow numbers its frames
		// from it.
		for _, rec := range b.Records {
			st.record(rec)
			det.Push(rec)
			for _, ev := range det.Drain() {
				st.finding(ev)
				text = ev.Finding.AppendDetail(text[:0])
				fmt.Fprintf(out, "%s frame %-5d [%s] peer %s: %s\n",
					ev.Time.Format("15:04:05.000000"), ev.Frame,
					ev.Finding.Kind, ev.Finding.Peer, text)
			}
		}
	}
	var next *followCheckpoint
	if sc.Err() == nil {
		if state, err := det.SnapshotState(); err == nil {
			next = &followCheckpoint{
				datalink: sc.Datalink(),
				offset:   sc.Offset(),
				frame:    int64(sc.Frame()),
				state:    state,
			}
		}
	}
	return det.Finish(), next, sc.Err()
}
