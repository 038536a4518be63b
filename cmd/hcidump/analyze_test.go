package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snoop"
)

// buildBinary compiles this command once per test binary invocation and
// returns its path; CLI contract tests exec the real binary so exit
// codes — part of the scripted-triage interface — are pinned for real.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hcidump")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestAnalyzeExitCodeContract pins the -analyze CLI contract on the
// batch pipeline: exit 3 when the capture has findings, exit 0 on a
// clean capture, and exit 1 with the death offset on a truncated one —
// the offset being the same one the in-memory scanner reports.
func TestAnalyzeExitCodeContract(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	var buf bytes.Buffer
	stats, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 4000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeyExposures == 0 {
		t.Fatal("fixture lost its findings")
	}
	data := buf.Bytes()
	capture := filepath.Join(dir, "attack.btsnoop")
	if err := os.WriteFile(capture, data, 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) (int, string, string) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running %v: %v", args, err)
		}
		return code, stdout.String(), stderr.String()
	}

	code, out, _ := run("-analyze", capture)
	if code != exitFindings {
		t.Fatalf("findings capture exited %d, want %d\n%s", code, exitFindings, out)
	}
	if !strings.Contains(out, "forensic report") {
		t.Fatalf("no report rendered:\n%s", out)
	}
	// -stats drives the scanner/detector manually; same contract.
	if code, _, _ := run("-analyze", "-stats", capture); code != exitFindings {
		t.Fatalf("-stats findings capture exited %d, want %d", code, exitFindings)
	}

	clean := filepath.Join(dir, "clean.btsnoop")
	if err := os.WriteFile(clean, data[:16], 0o644); err != nil { // header only
		t.Fatal(err)
	}
	if code, _, _ := run("-analyze", clean); code != 0 {
		t.Fatalf("header-only capture exited %d, want 0", code)
	}

	// Truncate mid-record: the reported offset must be the death byte
	// the in-memory scanner computes for the same cut.
	cut := len(data) - 7
	sc := snoop.NewBatchScannerBytes(data[:cut])
	var b snoop.RecordBatch
	for sc.ScanBatch(&b) {
	}
	if sc.Err() == nil {
		t.Fatal("reference scanner saw no truncation")
	}
	trunc := filepath.Join(dir, "trunc.btsnoop")
	if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := run("-analyze", trunc)
	if code != 1 {
		t.Fatalf("truncated capture exited %d, want 1", code)
	}
	want := fmt.Sprintf("offset %d", sc.Offset())
	if !strings.Contains(errOut, want) || !strings.Contains(errOut, "truncated") {
		t.Fatalf("truncation error lacks %q:\n%s", want, errOut)
	}
}
