package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/snoop"
)

// TestKeysOutputGolden pins hcidump -keys stdout byte for byte on a fixed
// synthesized capture (4,000 records, seed 6): one line per plaintext
// key in frame order, frame, carrying message, peer and key.
// testdata/keys.golden is that output, to be changed only with the
// format. A capture with no key prints the one "none found" line.
func TestKeysOutputGolden(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 4000, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	capture := filepath.Join(dir, "keys.btsnoop")
	clean := filepath.Join(dir, "clean.btsnoop")
	if err := os.WriteFile(capture, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(clean, buf.Bytes()[:16], 0o644); err != nil { // header only
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "keys.golden"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		capture string
		want    []byte
	}{
		{capture, want},
		{clean, []byte("no plaintext link keys found\n")},
	} {
		out, err := exec.Command(bin, "-keys", tc.capture).Output()
		if err != nil {
			t.Fatalf("hcidump -keys %s: %v", filepath.Base(tc.capture), err)
		}
		if !bytes.Equal(out, tc.want) {
			t.Errorf("hcidump -keys %s:\n%s\nwant:\n%s", filepath.Base(tc.capture), out, tc.want)
		}
	}
}
