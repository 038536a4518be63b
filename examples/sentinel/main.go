// Live BLAP detection: the forensic analyzer running while the attack
// is in progress. A victim testbed is page-blocked and its HCI dump is
// streamed to an in-process sentinel server over a real Unix socket —
// exactly what a phone forwarding its snoop log to blapd would do. The
// findings arrive as JSONL events mid-stream, when the attacker could
// still be interrupted, and the daemon's /metrics snapshot shows the
// operational counters an on-call responder would watch.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sentinel"
)

func main() {
	// Run the paper's page blocking attack and pull the victim's dump —
	// the capture a live forwarder would have been streaming all along.
	tb, err := core.NewTestbed(21, core.TestbedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	fmt.Printf("attack ran: MITM established = %v\n\n", rep.MITMEstablished)
	capture, err := tb.M.PullSnoopLog()
	if err != nil {
		log.Fatal(err)
	}

	// Start the sentinel on a Unix socket, JSONL events to stdout.
	sock := filepath.Join(os.TempDir(), fmt.Sprintf("sentinel-example-%d.sock", os.Getpid()))
	done := make(chan sentinel.StreamSummary, 1)
	srv := sentinel.New(sentinel.Config{
		UnixAddr:    sock,
		Output:      os.Stdout,
		OnStreamEnd: func(sum sentinel.StreamSummary) { done <- sum },
	})
	if err := srv.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	// Stream the capture like a live client; findings print as they fire.
	fmt.Println("== JSONL event stream (what blapd emits) ==")
	// An empty session id opens a one-shot stream; the fin marks its end,
	// and the daemon closes the connection once the stream has ended.
	conn, _, err := sentinel.DialSession("unix", srv.UnixAddr(), "", "", 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sentinel.WriteSessionBytes(conn, capture); err != nil {
		log.Fatal(err)
	}
	if err := sentinel.WriteSessionFin(conn); err != nil {
		log.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		log.Fatal(err)
	}
	conn.Close()
	sum := <-done

	fmt.Printf("\nstream ended %q: %d records, %d bytes, %d findings\n",
		sum.Status, sum.Records, sum.Bytes, sum.Findings)

	snap := srv.Snapshot()
	fmt.Println("\n== /metrics snapshot ==")
	fmt.Printf("streams: %d total, %d active  records: %d  events: %d\n",
		snap.StreamsTotal, snap.StreamsActive, snap.Records, snap.EventsEmitted)
	fmt.Printf("packets: command=%d event=%d acl=%d\n",
		snap.Packets["command"], snap.Packets["event"], snap.Packets["acl"])
	fmt.Printf("findings by kind: %v\n", snap.FindingsKind)
	fmt.Printf("stream ends by status: %v\n", snap.StreamEnds)
}
