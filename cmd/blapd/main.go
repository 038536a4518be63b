// Command blapd is the live BLAP detection daemon: it accepts btsnoop
// streams over TCP and Unix sockets, runs the incremental forensic
// detector on each connection as bytes arrive, and emits findings as
// JSONL events on stdout the moment they are detected — not at EOF.
// An HTTP endpoint serves /metrics (JSON counters, per-stream lag, and
// ingest/detect latency histograms with p50/p90/p99 — per stream and
// aggregate, plus scan/push/drain/emit stage timings), /healthz (503
// once draining), and — with -pprof — the standard /debug/pprof mux.
// With -store, findings, stream ends, and periodic metrics snapshots
// also persist to an embedded time-series store, queryable over HTTP
// via /query?series=findings|ends|hist.
//
//	blapd -tcp 127.0.0.1:9011 -http 127.0.0.1:9012
//	blapd -tcp 127.0.0.1:9011 -http 127.0.0.1:9012 -pprof   # + /debug/pprof
//	blapd -tcp 127.0.0.1:9011 -http 127.0.0.1:9012 -store /var/lib/blapd -retention 168h
//	blapd -unix /run/blapd.sock
//	blapd -stdin < capture.btsnoop        # one-shot; exit 3 on findings
//	blapd -send capture.btsnoop -tcp host:9011   # one-shot send to a daemon
//	blapd -send capture.btsnoop -tcp host:9011 -session job-7   # resumable send
//
// Every socket stream speaks one protocol, the session framing; an empty
// session id is a one-shot stream with resume disabled. Clients that
// pass -session get a resumable stream: if the transport dies mid-send,
// the stream's pipeline ends and frees its slot, the daemon parks its
// detector for -resume-grace, and the client reconnects with capped
// exponential backoff + jitter; the reconnect starts a new pipeline from
// the parked detector, and the client resumes from the offset the hello
// names (the last record boundary the detector consumed). With -store
// the daemon also checkpoints detector state every -checkpoint-every
// capture bytes, so a killed-and-restarted daemon recovers parked
// sessions from disk (logged at startup).
//
// SIGINT/SIGTERM drain the daemon: listeners close, in-flight streams
// get -drain-timeout to finish, stragglers are force-closed; parked
// sessions are checkpointed and end with status "aborted".
//
// Exit codes: 0 on success, 1 on error, 2 on usage; -stdin exits 3 when
// the capture produced at least one finding (the same contract as
// hcidump -analyze); -send exits 4 when a partial payload was delivered
// but the send could not be completed (with -session, the daemon may
// still hold the parked remainder).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sentinel"
	"repro/internal/tsdb"
)

// exitFindings matches hcidump -analyze: one-shot analysis found signatures.
const exitFindings = 3

// exitPartialSend distinguishes a -send that delivered some payload but
// could not finish (daemon may hold a parked remainder) from a send that
// failed outright — operators retry the former with the same -session.
const exitPartialSend = 4

func main() {
	var (
		tcpAddr      = flag.String("tcp", "", "btsnoop ingestion TCP address (empty disables)")
		unixAddr     = flag.String("unix", "", "btsnoop ingestion Unix socket path (empty disables)")
		httpAddr     = flag.String("http", "", "metrics/health HTTP address (empty disables)")
		maxStreams   = flag.Int("max-streams", 64, "max concurrent ingestion streams; excess connections are rejected")
		shards       = flag.Int("shards", 0, "event shard count for the output fan-in (0 = GOMAXPROCS); -shards 1 keeps the single-writer layout and reproduces the pre-shard output byte-for-byte on a single stream")
		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-read idle deadline on ingestion sockets (0 = default, negative disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight streams on shutdown")
		pprofFlag    = flag.Bool("pprof", false, "expose /debug/pprof profiling handlers on the -http address")
		stdin        = flag.Bool("stdin", false, "one-shot: ingest a single capture from stdin and exit (3 if findings)")
		send         = flag.String("send", "", "client mode: stream the given capture file to a running daemon at -tcp or -unix")
		storeDir     = flag.String("store", "", "persist findings, stream ends, and metrics snapshots to an embedded time-series store at this directory (adds /query to -http)")
		retention    = flag.Duration("retention", 0, "drop stored segments older than this; 0 keeps everything (needs -store)")
		metricsEvery = flag.Duration("metrics-every", 10*time.Second, "interval between persisted metrics snapshots (negative disables; needs -store)")
		resumeGrace  = flag.Duration("resume-grace", 0, "how long a disconnected session-protocol stream is parked awaiting resume (0 = 2m default, negative disables parking)")
		ckptEvery    = flag.Int64("checkpoint-every", 0, "capture-byte interval between detector checkpoints for session streams (0 = 8MiB default, negative disables; needs -store to matter)")
		ackEvery     = flag.Int64("ack-every", 0, "payload-byte interval between session acks (0 = 4MiB default)")
		tenantQuota  = flag.Int("tenant-quota", 0, "max concurrent sessions per tenant, admitted ahead of -max-streams (0 = unlimited)")
		watchdog     = flag.Duration("watchdog", 0, "force-fail any stream whose detector makes no progress for this long (0 disables)")
		session      = flag.String("session", "", "with -send: session id for resumable transfer (empty = one-shot stream: same protocol, resume disabled)")
		tenant       = flag.String("tenant", "", "with -send -session: tenant label for per-tenant admission quotas")
		connTimeout  = flag.Duration("connect-timeout", 5*time.Second, "with -send: per-attempt dial/handshake timeout")
		cutAt        = flag.Int64("cut", 0, "with -send -session: test hook — kill the transport after this many payload bytes on the first attempt, then reconnect and resume")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: blapd [-tcp addr] [-unix path] [-http addr] [-stdin] [-send capture]")
		os.Exit(2)
	}

	switch {
	case *send != "":
		if err := runSend(*send, *tcpAddr, *unixAddr, *session, *tenant, *connTimeout, *cutAt); err != nil {
			if errors.Is(err, errPartialSend) {
				fmt.Fprintln(os.Stderr, "blapd:", err)
				os.Exit(exitPartialSend)
			}
			fail(err)
		}
	case *stdin:
		os.Exit(runStdin(*maxStreams, *shards))
	default:
		if *tcpAddr == "" && *unixAddr == "" {
			fmt.Fprintln(os.Stderr, "blapd: no ingestion listener; set -tcp and/or -unix (or use -stdin/-send)")
			os.Exit(2)
		}
		if *pprofFlag && *httpAddr == "" {
			fmt.Fprintln(os.Stderr, "blapd: -pprof needs -http")
			os.Exit(2)
		}
		if *storeDir == "" && *retention != 0 {
			fmt.Fprintln(os.Stderr, "blapd: -retention needs -store")
			os.Exit(2)
		}
		cfg := sentinel.Config{
			TCPAddr:         *tcpAddr,
			UnixAddr:        *unixAddr,
			HTTPAddr:        *httpAddr,
			MaxStreams:      *maxStreams,
			Shards:          *shards,
			ReadTimeout:     *readTimeout,
			EnablePprof:     *pprofFlag,
			ResumeGrace:     *resumeGrace,
			CheckpointEvery: *ckptEvery,
			AckEvery:        *ackEvery,
			TenantQuota:     *tenantQuota,
			Watchdog:        *watchdog,
			Output:          os.Stdout,
		}
		var store *tsdb.Store
		if *storeDir != "" {
			var err error
			store, err = tsdb.Open(tsdb.Options{
				Dir:       *storeDir,
				Retention: *retention,
				// Metrics snapshots decay to 10-minute resolution once an
				// hour old; event series are kept whole until retention.
				Downsample: map[string]tsdb.Downsampler{
					sentinel.SeriesHist: sentinel.HistDownsample(time.Hour, 10*time.Minute),
				},
			})
			if err != nil {
				fail(fmt.Errorf("opening store: %w", err))
			}
			cfg.Store = store
			cfg.MetricsEvery = *metricsEvery
			fmt.Fprintf(os.Stderr, "blapd: persisting to %s\n", *storeDir)
		}
		err := runDaemon(cfg, *drainTimeout)
		if store != nil {
			// The daemon has drained (persist queues flushed) by now; seal
			// and fsync the tail segments before exiting.
			if cerr := store.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "blapd: closing store: %v\n", cerr)
			}
		}
		if err != nil {
			fail(err)
		}
	}
}

// runDaemon serves until SIGINT/SIGTERM, then drains.
func runDaemon(cfg sentinel.Config, drain time.Duration) error {
	s := sentinel.New(cfg)
	if cfg.Store != nil {
		// Before accepting connections, replay any detector checkpoints a
		// previous (killed) daemon left behind: those sessions come back
		// parked and resumable from their checkpoint offsets.
		n, err := s.RecoverSessions()
		if err != nil {
			return fmt.Errorf("recovering sessions: %w", err)
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "blapd: recovered %d parked session(s) from store\n", n)
		}
	}
	if err := s.Start(); err != nil {
		return err
	}
	for _, l := range []struct{ name, addr string }{
		{"tcp", s.TCPAddr()}, {"unix", s.UnixAddr()}, {"http", s.HTTPAddr()},
	} {
		if l.addr != "" {
			fmt.Fprintf(os.Stderr, "blapd: listening %s %s\n", l.name, l.addr)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "blapd: %s, draining (up to %s)\n", got, drain)

	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "blapd: drain deadline hit; streams force-closed")
	}
	return nil
}

// runStdin ingests one capture from stdin, emitting events on stdout.
func runStdin(maxStreams, shards int) int {
	s := sentinel.New(sentinel.Config{MaxStreams: maxStreams, Shards: shards, Output: os.Stdout})
	sum := s.Ingest("stdin", "stdin", os.Stdin)
	if sum.Err != nil && sum.Status != sentinel.StatusClean {
		fmt.Fprintf(os.Stderr, "blapd: stream ended %s: %v\n", sum.Status, sum.Err)
		return 1
	}
	if sum.Findings > 0 {
		return exitFindings
	}
	return 0
}

// errPartialSend marks a send that delivered some payload but could not
// finish; main translates it to exitPartialSend so operators know the
// daemon may hold a parked remainder worth resuming.
var errPartialSend = errors.New("partial send")

// runSend streams a capture file to a running daemon — the companion
// client for testing a deployed blapd without a phone in hand. Every
// send is a session (sendSession). With -session the transfer is
// resumable: a mid-send transport failure reconnects under the same
// session id and resumes from the byte offset the daemon's hello
// reports. Without it the send is a one-shot stream.
func runSend(path, tcpAddr, unixAddr, session, tenant string, connTimeout time.Duration, cut int64) error {
	network, addr := "tcp", tcpAddr
	if unixAddr != "" {
		network, addr = "unix", unixAddr
	}
	if addr == "" {
		return fmt.Errorf("-send needs a daemon address via -tcp or -unix")
	}
	if session == "" && tenant != "" {
		return fmt.Errorf("-tenant needs -session (an empty session id is a one-shot stream, which takes no tenant)")
	}
	if session == "" && cut != 0 {
		return fmt.Errorf("-cut needs -session (a one-shot stream cannot resume)")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sendSession(f, path, network, addr, session, tenant, connTimeout, cut)
}

// finWaitTimeout bounds how long a session send waits, after writing
// the fin marker, for the daemon to finish draining the socket and
// close its side. The daemon's backlog past fin is bounded by socket
// buffers plus one batch ring, so this only fires if the daemon is
// wedged — and then the send reports a partial delivery rather than
// claiming success it cannot confirm.
const finWaitTimeout = 2 * time.Minute

// sendSession runs the transfer loop: dial with the session handshake,
// seek to the daemon's hello offset, stream chunks, and on any
// transport failure reconnect with backoff and resume. `fails` counts
// consecutive attempts without forward progress; it resets whenever the
// daemon's acknowledged offset advances, so a flaky link that still
// moves bytes never exhausts the retry budget. An empty session is a
// one-shot stream: a failed dial still retries, but once payload bytes
// are written a redial would start a second stream and duplicate its
// findings, so a failure then is a partial send.
//
// The daemon acks delivery progress on the same connection, and the
// client MUST drain those acks: closing a TCP socket with unread data
// in the receive buffer sends RST, which destroys capture bytes the
// daemon has not yet read. For the same reason a successful send waits
// for the daemon to process the fin and close its side (EOF) before
// closing — "sent" here means daemon-confirmed, not buffered-in-flight.
func sendSession(f *os.File, path, network, addr, session, tenant string, connTimeout time.Duration, cut int64) error {
	pol := core.DefaultBackoff
	var (
		delivered int64 // highest daemon-confirmed resume offset seen
		pushed    int64 // payload bytes written by this process
		stream    uint64
		fails     int
		cutArmed  = cut > 0
	)
	what := "one-shot stream"
	if session != "" {
		what = fmt.Sprintf("session %q", session)
	}
	for {
		conn, hello, err := sentinel.DialSession(network, addr, session, tenant, connTimeout)
		if err != nil {
			fails++
			if fails >= pol.Attempts {
				if delivered > 0 || pushed > 0 {
					return fmt.Errorf("%w: %d bytes of %s pushed (daemon confirmed offset %d) under %s: %v",
						errPartialSend, pushed, path, delivered, what, err)
				}
				return fmt.Errorf("dialing %s %s: %w", network, addr, err)
			}
			d := sendJitter(pol.Base(fails))
			fmt.Fprintf(os.Stderr, "blapd: session dial failed (%v); retry in %s\n", err, d)
			time.Sleep(d)
			continue
		}
		stream = hello.Stream
		if hello.Offset > delivered {
			fails = 0
			delivered = hello.Offset
		}
		if _, err := f.Seek(hello.Offset, io.SeekStart); err != nil {
			conn.Close()
			return err
		}
		var r io.Reader = f
		if cutArmed {
			if rem := cut - hello.Offset; rem > 0 {
				r = &faults.CutReader{R: f, N: rem}
			} else {
				cutArmed = false
			}
		}
		// Drain acks for the lifetime of this connection. The goroutine
		// ends on EOF (daemon finished the stream and closed), on the
		// post-fin read deadline, or when this side closes the conn after
		// a write error.
		var acked atomic.Int64
		var drainErr error
		readDone := make(chan struct{})
		go func() {
			defer close(readDone)
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				var ev sentinel.Event
				if json.Unmarshal(sc.Bytes(), &ev) != nil {
					continue
				}
				if ev.Type == sentinel.EventSessionAck && ev.Offset > acked.Load() {
					acked.Store(ev.Offset)
				}
			}
			drainErr = sc.Err()
		}()
		n, err := sentinel.WriteSessionChunks(conn, r)
		pushed += n
		if err == nil {
			err = sentinel.WriteSessionFin(conn)
		}
		finSent := err == nil
		if finSent {
			_ = conn.SetReadDeadline(time.Now().Add(finWaitTimeout))
			<-readDone
		}
		conn.Close()
		<-readDone
		if a := acked.Load(); a > delivered {
			fails = 0
			delivered = a
		}
		if finSent {
			if drainErr == nil {
				fmt.Fprintf(os.Stderr, "blapd: sent %d bytes from %s to %s %s (%s, stream %d, resumed from offset %d)\n",
					n, path, network, addr, what, stream, hello.Offset)
				return nil
			}
			// Fin went out but the daemon never confirmed the stream end.
			// Reconnecting could land on a completed session and restream
			// from zero, so report the partial delivery instead.
			return fmt.Errorf("%w: fin sent for %s but the daemon did not confirm the stream end (confirmed offset %d) under %s: %v",
				errPartialSend, path, delivered, what, drainErr)
		}
		if errors.Is(err, faults.ErrCut) {
			// The -cut test hook fired: an intentional mid-send death, not a
			// retry-budget failure. Reconnect immediately and resume.
			cutArmed = false
			fmt.Fprintf(os.Stderr, "blapd: transport cut at payload byte %d (test hook); reconnecting session %q\n", cut, session)
			continue
		}
		fails++
		if fails >= pol.Attempts || (session == "" && pushed > 0) {
			return fmt.Errorf("%w: %d bytes of %s pushed (daemon confirmed offset %d) under %s: %v",
				errPartialSend, pushed, path, delivered, what, err)
		}
		d := sendJitter(pol.Base(fails))
		fmt.Fprintf(os.Stderr, "blapd: session send died (%v); reconnecting in %s\n", err, d)
		time.Sleep(d)
	}
}

// sendJitter spreads a backoff delay ±25% so a fleet of clients
// retrying against one recovering daemon doesn't thundering-herd it.
func sendJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	return d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "blapd:", err)
	os.Exit(1)
}
