package sentinel

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestResumeDifferentialCutEveryStride is the transport-chaos
// differential at test scale: cut the transport at a sweep of payload
// offsets, resume each time, and demand findings byte-identical to the
// uninterrupted baseline. TestResumeDifferentialEveryOffset is the
// full sweep over a smaller capture; here the stride keeps the test
// inside a few seconds (coarser still under the race detector).
func TestResumeDifferentialCutEveryStride(t *testing.T) {
	capture := synthCapture(t, 2000, 21)
	stride := len(capture)/97 + 1
	if testing.Short() || raceEnabled {
		stride = len(capture)/23 + 1
	}
	resumeDifferential(t, capture, stride)
}

// TestResumeDifferentialEveryOffset cuts the session transport at every
// payload byte offset of a 40-record capture, resumes, and requires
// findings byte-identical to an uninterrupted run — the pin that a cut
// anywhere, including inside a block the transport read ahead, resumes
// from the detector's position.
func TestResumeDifferentialEveryOffset(t *testing.T) {
	resumeDifferential(t, synthCapture(t, 40, 1), 1)
}

// resumeDifferential is the transport-chaos differential for the
// session resume protocol: for every cut offset c (1..len(data), step
// stride) it streams the capture to a live server through a
// faults.CutWriter that kills the connection at payload byte c, abruptly
// closes the transport, reconnects with the same session id, resumes
// from the server's hello offset, and finishes the capture — then
// demands that the resumed run's findings are byte-identical (modulo
// the stream id) to an uninterrupted baseline, and that the merged
// stream ends clean with the baseline's record/byte/finding totals.
//
// One server (unix socket, no store — the differential exercises the
// in-process resume path, not checkpoints) serves every trial: each cut
// parks the stream's drained detector and position, and the reconnect
// resumes it in a new pipeline from the record boundary the hello names.
// Each trial uses its own session id, so its events are keyed by its
// own stream id.
func resumeDifferential(t *testing.T, data []byte, stride int) {
	t.Helper()
	out := &syncBuffer{}
	ends := make(chan StreamSummary, 16)
	srv := startServer(t, Config{
		UnixAddr:    filepath.Join(t.TempDir(), "chaos.sock"),
		ResumeGrace: time.Minute,
		AckEvery:    4096,
		Output:      out,
		OnStreamEnd: func(sum StreamSummary) { ends <- sum },
	})
	addr := srv.UnixAddr()

	base, err := chaosTrial(addr, "baseline", data, 0, out, ends)
	if err != nil {
		t.Fatalf("chaos: baseline: %v", err)
	}

	trials := 0
	for c := 1; c <= len(data); c += stride {
		got, err := chaosTrial(addr, fmt.Sprintf("cut-%d", c), data, c, out, ends)
		if err == nil {
			err = base.diff(got)
		}
		if err != nil {
			t.Fatalf("chaos: cut at %d: %v", c, err)
		}
		trials++
	}
	t.Logf("chaos: %d cut trials identical to baseline (%d findings, %d records)",
		trials, len(base.findings), base.sum.Records)
}

// chaosResult is one trial's observable output: the stream summary and
// the finding lines normalized for cross-trial comparison (stream id
// zeroed; nothing else differs when the protocol is correct).
type chaosResult struct {
	sum      StreamSummary
	findings []string
}

func (base chaosResult) diff(got chaosResult) error {
	if got.sum.Status != StatusClean {
		return fmt.Errorf("ended %q (err %v), want clean", got.sum.Status, got.sum.Err)
	}
	if got.sum.Records != base.sum.Records || got.sum.Bytes != base.sum.Bytes ||
		got.sum.Findings != base.sum.Findings {
		return fmt.Errorf("summary records=%d bytes=%d findings=%d, baseline %d/%d/%d",
			got.sum.Records, got.sum.Bytes, got.sum.Findings,
			base.sum.Records, base.sum.Bytes, base.sum.Findings)
	}
	if len(got.findings) != len(base.findings) {
		return fmt.Errorf("%d findings, baseline %d", len(got.findings), len(base.findings))
	}
	for i := range got.findings {
		if got.findings[i] != base.findings[i] {
			return fmt.Errorf("finding %d differs:\n  got  %s\n  want %s",
				i, got.findings[i], base.findings[i])
		}
	}
	return nil
}

// chaosTrial streams data to the server under session sid, cutting the
// transport at payload offset cut (0 = no cut, the baseline), resuming
// after the cut, and returns the stream's summary and normalized
// findings once it ends. Only the output written since the trial began
// is searched: the stream's lines cannot precede its dial.
func chaosTrial(addr, sid string, data []byte, cut int, out *syncBuffer, ends chan StreamSummary) (chaosResult, error) {
	mark := out.Len()
	conn, hello, err := DialSession("unix", addr, sid, "", 10*time.Second)
	if err != nil {
		return chaosResult{}, err
	}
	if hello.Offset != 0 {
		_ = conn.Close()
		return chaosResult{}, fmt.Errorf("fresh session hello offset %d", hello.Offset)
	}
	stream := hello.Stream

	if cut > 0 {
		// The CutWriter sits above the chunk framing, so the cut lands at
		// an exact payload offset regardless of chunk boundaries; the
		// abrupt close then simulates the peer dying mid-send.
		cw := &faults.CutWriter{W: &chunkFramingWriter{w: conn}, N: int64(cut)}
		if _, err := io.Copy(cw, bytes.NewReader(data)); err != nil && !errors.Is(err, faults.ErrCut) {
			_ = conn.Close()
			return chaosResult{}, fmt.Errorf("cut send: %w", err)
		}
		_ = conn.Close()

		conn, hello, err = DialSession("unix", addr, sid, "", 10*time.Second)
		if err != nil {
			return chaosResult{}, fmt.Errorf("resume dial: %w", err)
		}
		if hello.Stream != stream {
			_ = conn.Close()
			return chaosResult{}, fmt.Errorf("resumed as stream %d, was %d", hello.Stream, stream)
		}
		if hello.Offset < 0 || hello.Offset > int64(len(data)) {
			_ = conn.Close()
			return chaosResult{}, fmt.Errorf("resume hello offset %d outside capture", hello.Offset)
		}
		data = data[hello.Offset:]
	}

	if _, err := WriteSessionChunks(conn, bytes.NewReader(data)); err != nil {
		_ = conn.Close()
		return chaosResult{}, fmt.Errorf("send: %w", err)
	}
	if err := WriteSessionFin(conn); err != nil {
		_ = conn.Close()
		return chaosResult{}, fmt.Errorf("fin: %w", err)
	}

	var sum StreamSummary
	select {
	case sum = <-ends:
	case <-time.After(30 * time.Second):
		_ = conn.Close()
		return chaosResult{}, fmt.Errorf("stream %d never ended", stream)
	}
	_ = conn.Close()
	if sum.ID != stream {
		return chaosResult{}, fmt.Errorf("stream-end for %d, want %d", sum.ID, stream)
	}
	return chaosResult{sum: sum, findings: extractFindings(out.Since(mark), stream)}, nil
}

// extractFindings pulls the finding lines for one stream out of the
// shared JSONL output and normalizes them: the stream id (the only
// field that legitimately differs between a baseline run and a resumed
// run of the same capture) is zeroed and the line re-rendered through
// the canonical encoder.
func extractFindings(jsonl []byte, stream uint64) []string {
	var res []string
	for _, line := range bytes.Split(jsonl, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev Event
		if json.Unmarshal(line, &ev) != nil {
			continue
		}
		if ev.Type != EventFinding || ev.Stream != stream {
			continue
		}
		ev.Stream = 0
		res = append(res, string(ev.appendJSON(nil)))
	}
	return res
}

// chunkFramingWriter frames every Write as one session chunk. It sits
// under the fault injector so that injected partial writes still emit
// well-formed (shorter) chunks — the cut models a dying peer, not a
// corrupted one.
type chunkFramingWriter struct {
	w io.Writer
}

func (c *chunkFramingWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}
