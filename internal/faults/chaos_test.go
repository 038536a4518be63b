package faults

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestCutReaderCutsAtExactOffset(t *testing.T) {
	src := bytes.Repeat([]byte("abc"), 100)
	for _, cut := range []int64{0, 1, 7, 299, 300, 301} {
		r := &CutReader{R: bytes.NewReader(src), N: cut}
		got, err := io.ReadAll(r)
		wantN := int(cut)
		if wantN > len(src) {
			wantN = len(src)
		}
		if !bytes.Equal(got, src[:wantN]) {
			t.Fatalf("cut %d: delivered %d bytes, want %d", cut, len(got), wantN)
		}
		// A budget at or below the stream length cuts (even at the exact
		// end: the reset races the EOF and the reset wins); only a budget
		// beyond the stream lets the clean EOF through.
		if cut <= int64(len(src)) {
			if !errors.Is(err, ErrCut) {
				t.Fatalf("cut %d: err %v, want ErrCut", cut, err)
			}
		} else if err != nil {
			t.Fatalf("cut beyond stream: err %v", err)
		}
	}
}

func TestCutWriterPartialWriteThenCut(t *testing.T) {
	var sink bytes.Buffer
	w := &CutWriter{W: &sink, N: 10}
	n, err := w.Write([]byte("0123456"))
	if n != 7 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	n, err = w.Write([]byte("789abcdef"))
	if n != 3 || !errors.Is(err, ErrCut) {
		t.Fatalf("straddling write: n=%d err=%v, want 3/ErrCut", n, err)
	}
	if got := sink.String(); got != "0123456789" {
		t.Fatalf("forwarded %q", got)
	}
	if n, err := w.Write([]byte("x")); n != 0 || !errors.Is(err, ErrCut) {
		t.Fatalf("post-cut write: n=%d err=%v", n, err)
	}
}

func TestFullWriterRejectsWholesale(t *testing.T) {
	var sink bytes.Buffer
	w := &FullWriter{W: &sink, N: 8}
	if n, err := w.Write([]byte("12345678")); n != 8 || err != nil {
		t.Fatalf("fit: n=%d err=%v", n, err)
	}
	if n, err := w.Write([]byte("9")); n != 0 || !errors.Is(err, ErrDiskFull) {
		t.Fatalf("overflow: n=%d err=%v", n, err)
	}
	if sink.Len() != 8 {
		t.Fatalf("sink holds %d bytes", sink.Len())
	}
}
