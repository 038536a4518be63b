package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snoop"
)

func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "blapd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestStdinContract pins the -stdin one-shot CLI on the batch pipeline:
// exit 3 on findings with deterministic (byte-identical across runs)
// finding lines, and exit 1 naming the death offset for a capture cut
// mid-record — the same offset the in-memory scanner computes.
func TestStdinContract(t *testing.T) {
	bin := buildBinary(t)

	var buf bytes.Buffer
	stats, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 4000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeyExposures == 0 {
		t.Fatal("fixture lost its findings")
	}
	data := buf.Bytes()

	run := func(input []byte) (int, string) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-stdin")
		cmd.Stdin = bytes.NewReader(input)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running blapd -stdin: %v\n%s", err, stderr.String())
		}
		return code, stdout.String() + "\x00" + stderr.String()
	}

	findingLines := func(out string) []string {
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.Contains(l, `"type":"finding"`) {
				var ev map[string]any
				if err := json.Unmarshal([]byte(l), &ev); err != nil {
					t.Fatalf("bad finding line %q: %v", l, err)
				}
				lines = append(lines, l)
			}
		}
		return lines
	}

	code1, out1 := run(data)
	if code1 != exitFindings {
		t.Fatalf("findings capture exited %d, want %d", code1, exitFindings)
	}
	first := findingLines(out1)
	if len(first) == 0 {
		t.Fatal("no finding events emitted")
	}
	code2, out2 := run(data)
	if code2 != exitFindings {
		t.Fatalf("second run exited %d, want %d", code2, exitFindings)
	}
	if second := findingLines(out2); !equalLines(first, second) {
		t.Fatalf("finding lines differ across identical runs:\nrun1: %d lines\nrun2: %d lines", len(first), len(second))
	}

	// Truncated capture: exit 1, stderr names the death offset.
	cut := len(data) - 9
	sc := snoop.NewBatchScannerBytes(data[:cut])
	var b snoop.RecordBatch
	for sc.ScanBatch(&b) {
	}
	if sc.Err() == nil {
		t.Fatal("reference scanner saw no truncation")
	}
	code, out := run(data[:cut])
	if code != 1 {
		t.Fatalf("truncated capture exited %d, want 1", code)
	}
	want := fmt.Sprintf("offset %d", sc.Offset())
	if !strings.Contains(out, want) || !strings.Contains(out, "truncated") {
		t.Fatalf("truncation output lacks %q:\n%s", want, out)
	}
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
