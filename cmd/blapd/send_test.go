package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
)

// TestSendWithoutSession pins the README's plain `blapd -send` workflow:
// with no -session the capture goes up as a one-shot session stream. The
// send exits 0 only once the daemon confirmed the stream end, the daemon
// sees one clean stream-end with every record, and its findings equal
// AnalyzeBytes. A -tenant without -session is refused, not sent.
func TestSendWithoutSession(t *testing.T) {
	bin := buildBinary(t)
	dir := t.TempDir()

	var buf bytes.Buffer
	if _, err := snoop.Synthesize(&buf, snoop.SynthConfig{Records: 4000, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	capture := buf.Bytes()
	path := filepath.Join(dir, "cap.btsnoop")
	if err := os.WriteFile(path, capture, 0o644); err != nil {
		t.Fatal(err)
	}

	// out is read only after Shutdown, which retires the shard writers.
	var out bytes.Buffer
	// Room for one stream more than the send should start, so a second
	// stream is counted below instead of blocking the server.
	ends := make(chan sentinel.StreamSummary, 2)
	s := sentinel.New(sentinel.Config{
		UnixAddr:    filepath.Join(dir, "blapd.sock"),
		Output:      &out,
		OnStreamEnd: func(sum sentinel.StreamSummary) { ends <- sum },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}
	defer stop()

	send := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-send", path, "-unix", s.UnixAddr()}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), stderr.String()
		} else if err != nil {
			t.Fatalf("running blapd -send: %v", err)
		}
		return 0, stderr.String()
	}

	if code, stderr := send("-tenant", "x"); code == 0 || !strings.Contains(stderr, "-tenant needs -session") {
		t.Fatalf("-send -tenant without -session exited %d:\n%s", code, stderr)
	}
	if code, stderr := send(); code != 0 {
		t.Fatalf("-send without -session exited %d:\n%s", code, stderr)
	}
	var sum sentinel.StreamSummary
	select {
	case sum = <-ends:
	case <-time.After(10 * time.Second):
		t.Fatal("no stream end after the send exited")
	}
	stop()
	if sum.Status != sentinel.StatusClean || sum.Records != 4000 {
		t.Fatalf("stream ended %q with %d records (%v), want clean with 4000", sum.Status, sum.Records, sum.Err)
	}
	if len(ends) != 0 {
		t.Fatalf("%d further streams after one send", len(ends))
	}

	rep, err := forensics.AnalyzeBytes(capture)
	if err != nil {
		t.Fatal(err)
	}
	var live []sentinel.Event
	for _, line := range bytes.Split(out.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev sentinel.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if ev.Type == sentinel.EventFinding {
			live = append(live, ev)
		}
	}
	if len(live) == 0 || len(live) != len(rep.Findings) {
		t.Fatalf("%d live findings, AnalyzeBytes found %d", len(live), len(rep.Findings))
	}
	for i, ev := range live {
		w := rep.Findings[i]
		if ev.Frame != w.Frame || ev.Kind != w.Kind || ev.Peer != w.Peer.String() || ev.Detail != w.Detail {
			t.Fatalf("finding %d:\nlive:  %+v\nbatch: %+v", i, ev, w)
		}
	}
}
