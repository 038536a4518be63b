package faults

import (
	"errors"
	"io"
)

// Transport chaos: deterministic fault wrappers for the byte-stream
// layer, complementing the packet-level radio model above. Where the
// Injector perturbs *frames* inside the simulator, these wrap real
// io.Reader/io.Writer endpoints — a socket, a file, a store segment —
// and kill or fill them at exact byte offsets. Determinism here
// needs no RNG at all: every fault fires at a configured offset, so a
// chaos run is reproducible by construction and a differential harness
// can sweep "cut the connection at every byte" exhaustively.

// ErrCut is the terminal error a CutReader/CutWriter returns once its
// byte budget is exhausted — a stand-in for a connection reset.
var ErrCut = errors.New("faults: connection cut")

// ErrDiskFull is the terminal error a FullWriter returns once its
// capacity is exhausted — a stand-in for ENOSPC on a store volume.
var ErrDiskFull = errors.New("faults: disk full")

// CutReader delivers the first N bytes of the underlying reader, then
// fails every subsequent Read with ErrCut. A read straddling the
// boundary delivers the bytes before it (partial read, no error), so
// the cut lands at exactly byte N.
type CutReader struct {
	R io.Reader
	N int64 // bytes remaining before the cut
}

func (c *CutReader) Read(p []byte) (int, error) {
	if c.N <= 0 {
		return 0, ErrCut
	}
	if int64(len(p)) > c.N {
		p = p[:c.N]
	}
	n, err := c.R.Read(p)
	c.N -= int64(n)
	if err == nil && c.N <= 0 {
		// Deliver the boundary bytes cleanly; the next call cuts.
		return n, nil
	}
	return n, err
}

// CutWriter accepts the first N bytes, then fails with ErrCut. A write
// straddling the boundary is a partial write: the bytes before the cut
// are forwarded and the short count returned with the error, which is
// exactly how a reset socket behaves mid-send.
type CutWriter struct {
	W io.Writer
	N int64 // bytes remaining before the cut
}

func (c *CutWriter) Write(p []byte) (int, error) {
	if c.N <= 0 {
		return 0, ErrCut
	}
	cut := false
	if int64(len(p)) > c.N {
		p = p[:c.N]
		cut = true
	}
	n, err := c.W.Write(p)
	c.N -= int64(n)
	if err == nil && cut {
		return n, ErrCut
	}
	return n, err
}

// FullWriter accepts the first N bytes, then fails every Write with
// ErrDiskFull — the disk-full fault for store paths. Unlike CutWriter
// a straddling write fails wholesale (no partial forward): filesystems
// surface ENOSPC for the write, not for its tail.
type FullWriter struct {
	W io.Writer
	N int64 // bytes of capacity remaining
}

func (f *FullWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > f.N {
		return 0, ErrDiskFull
	}
	n, err := f.W.Write(p)
	f.N -= int64(n)
	return n, err
}
