package tsdb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestRecoveryTruncatedAtEveryByte is the snoop truncation-at-every-
// cut-byte discipline applied to our own files: write a segment of
// known frames, then for every possible cut point truncate a copy of
// the file to that length and reopen the store on it. Recovery must
// keep exactly the frames that fit entirely before the cut — never a
// partial frame, never fewer than the intact prefix — and the store
// must accept appends afterwards. The segment is written once frame by
// frame with Append and once in batches with AppendBatch.
func TestRecoveryTruncatedAtEveryByte(t *testing.T) {
	base := t0.UnixNano()
	const nFrames = 8
	payload := func(i int) []byte { return []byte(fmt.Sprintf(`{"finding":%d,"pad":"abcdefgh"}`, i)) }
	t.Run("append", func(t *testing.T) {
		var want []Frame
		for i := 0; i < nFrames; i++ {
			want = append(want, Frame{TS: base + int64(i), Key: uint64(i + 1), Data: payload(i)})
		}
		checkTruncatedAtEveryByte(t, want, func(s *Store) {
			for _, fr := range want {
				if err := s.Append("findings", fr.TS, fr.Key, fr.Data); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
		})
	})
	t.Run("batch", func(t *testing.T) {
		batches := []int{3, 1, 4} // frames per batch, nFrames in all
		var want []Frame
		for b, n := range batches {
			for j := 0; j < n; j++ {
				want = append(want, Frame{TS: base + int64(b), Key: uint64(b + 1), Data: payload(len(want))})
			}
		}
		checkTruncatedAtEveryByte(t, want, func(s *Store) {
			off := 0
			for _, n := range batches {
				var data []byte
				for _, fr := range want[off : off+n] {
					data = append(data, fr.Data...)
				}
				fr := want[off]
				if got, err := s.AppendBatch("findings", fr.TS, fr.Key, data, len(fr.Data)); err != nil || got != n {
					t.Fatalf("AppendBatch wrote %d of %d: %v", got, n, err)
				}
				off += n
			}
		})
	})
}

// checkTruncatedAtEveryByte builds one findings segment with write,
// which must append exactly the frames of want, and checks recovery at
// every cut of it.
func checkTruncatedAtEveryByte(t *testing.T, want []Frame, write func(*Store)) {
	// Build the pristine segment once.
	master := t.TempDir()
	s := openTest(t, master, nil)
	frameLens := make([]int, len(want)) // encoded size of each frame
	for i, fr := range want {
		frameLens[i] = frameHeaderSize + frameMetaSize + len(fr.Data)
	}
	write(s)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segPath := filepath.Join(master, "findings", "00000001.seg")
	pristine, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the file is exactly header + sum(frames).
	wantLen := segHeaderSize
	for _, l := range frameLens {
		wantLen += l
	}
	if len(pristine) != wantLen {
		t.Fatalf("segment is %d bytes, want %d", len(pristine), wantLen)
	}

	// framesBefore(cut) = how many whole frames fit in the first cut bytes.
	framesBefore := func(cut int) int {
		off := segHeaderSize
		if cut < off {
			return 0
		}
		n := 0
		for _, l := range frameLens {
			if off+l > cut {
				break
			}
			off += l
			n++
		}
		return n
	}
	// validLen(n) = byte offset of the end of frame n (header only for 0).
	validLen := func(n int) int {
		off := segHeaderSize
		for i := 0; i < n; i++ {
			off += frameLens[i]
		}
		return off
	}
	until := want[len(want)-1].TS + 1

	for cut := 0; cut <= len(pristine); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
			t.Fatal(err)
		}
		torn := filepath.Join(dir, "findings", "00000001.seg")
		if err := os.WriteFile(torn, pristine[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir, CompactEvery: -1, SyncEvery: -1, Now: fixedClock(t0)})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		n := framesBefore(cut)
		got := collect(t, s2, "findings", 0, until, KeyAny)
		if len(got) != n {
			s2.Close()
			t.Fatalf("cut %d: recovered %d frames, want %d", cut, len(got), n)
		}
		// The surviving prefix is intact byte-for-byte, in order.
		for i, fr := range got {
			if w := want[i]; string(fr.Data) != string(w.Data) || fr.TS != w.TS || fr.Key != w.Key {
				s2.Close()
				t.Fatalf("cut %d: frame %d corrupt: ts=%d key=%d data=%q", cut, i, fr.TS, fr.Key, fr.Data)
			}
		}
		// The file was physically truncated to the last valid frame
		// boundary. A cut inside the header leaves nothing recoverable,
		// so the segment is rebuilt as empty-but-valid (header only).
		st, err := os.Stat(torn)
		if err != nil {
			t.Fatal(err)
		}
		if wantSize := int64(validLen(n)); st.Size() != wantSize {
			s2.Close()
			t.Fatalf("cut %d: file is %d bytes after recovery, want %d", cut, st.Size(), wantSize)
		}
		// The store must keep working: append lands after the tear.
		if err := s2.Append("findings", until, 99, []byte("after-tear")); err != nil {
			s2.Close()
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		got2 := collect(t, s2, "findings", 0, until, KeyAny)
		if len(got2) != n+1 {
			s2.Close()
			t.Fatalf("cut %d: after append: %d frames, want %d", cut, len(got2), n+1)
		}
		last := got2[len(got2)-1]
		if string(last.Data) != "after-tear" || last.Key != 99 {
			s2.Close()
			t.Fatalf("cut %d: appended frame corrupt: %q", cut, last.Data)
		}
		if err := s2.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
	}
}

// TestRecoveryCorruptMidFile flips a byte in the middle of a segment:
// recovery must keep the intact prefix and discard the flipped frame
// and everything after it (a CRC tear is a tear wherever it is).
func TestRecoveryCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	base := t0.UnixNano()
	for i := 0; i < 10; i++ {
		if err := s.Append("findings", base+int64(i), 1, []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	s.Close()
	segPath := filepath.Join(dir, "findings", "00000001.seg")
	data, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	frameLen := frameHeaderSize + frameMetaSize + len("frame-0")
	// Flip a payload byte inside frame 5.
	idx := segHeaderSize + 5*frameLen + frameHeaderSize + frameMetaSize
	data[idx] ^= 0xff
	if err := os.WriteFile(segPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, nil)
	got := collect(t, s2, "findings", 0, base+100, KeyAny)
	if len(got) != 5 {
		t.Fatalf("recovered %d frames, want 5 (prefix before the flip)", len(got))
	}
	for i, fr := range got {
		if want := fmt.Sprintf("frame-%d", i); string(fr.Data) != want {
			t.Fatalf("frame %d: %q, want %q", i, fr.Data, want)
		}
	}
}

// TestRecoveryForeignFile: a segment file whose header is not ours is
// treated as fully torn (truncated to empty) rather than misparsed.
func TestRecoveryForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "findings", "00000001.seg")
	if err := os.WriteFile(seg, []byte("not a tsdb segment at all, just some text"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, nil)
	if got := collect(t, s, "findings", 0, 1<<62, KeyAny); len(got) != 0 {
		t.Fatalf("foreign file yielded %d frames", len(got))
	}
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != segHeaderSize {
		t.Fatalf("foreign file not rebuilt as an empty segment: %d bytes", st.Size())
	}
}
