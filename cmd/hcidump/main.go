// Command hcidump parses btsnoop capture files (RFC 1761, as written by
// Android's snoop log, bluez-hcidump, or this project's simulator) and
// renders them as a trace table. It can also list the plaintext link
// keys a capture holds — the paper's extraction step — and run the
// forensic analyzer over it. Every btsnoop mode reads the capture
// through the block scanner (snoop.BatchScanner) in bounded memory;
// -analyze and -keys both run forensics.AnalyzeBatch, -keys printing
// the report's key exposures, so multi-gigabyte dumps decode a few
// hundred KiB at a time.
//
//	hcidump capture.btsnoop
//	hcidump -keys capture.btsnoop
//	hcidump -hex capture.btsnoop
//	hcidump -analyze capture.btsnoop
//	hcidump -follow capture.btsnoop
//	hcidump -usb capture.usbraw
//
// Exit codes: 0 on success, 1 on error, 2 on usage; -analyze exits 3
// when the analyzer reports at least one finding, so scripted triage can
// distinguish "clean capture" from "attack signature present" without
// parsing the report text.
//
// -follow tails a capture another process is still appending to (the
// live Android btsnoop log): findings print the moment they complete,
// and once the file stops growing for -idle the final report renders
// with the same exit-3 contract as -analyze. The tail polls with capped
// exponential backoff — 10 ms after fresh bytes, doubling to -poll-max
// while the file is quiet — instead of a fixed interval. With
// -checkpoint the follow is restartable: on clean exit the scan
// position and full detector state are written to a versioned sidecar
// file, and the next -follow with the same sidecar resumes exactly
// there — findings that straddle the restart are still detected, and
// the final report is cumulative across runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/forensics"
	"repro/internal/snoop"
	"repro/internal/usbsniff"
)

// exitFindings is the -analyze exit code for a capture with findings.
const exitFindings = 3

func main() {
	var (
		keys    = flag.Bool("keys", false, "extract plaintext link keys")
		hex     = flag.Bool("hex", false, "print raw packet bytes per frame")
		usb     = flag.Bool("usb", false, "input is a raw sniffed USB stream, not btsnoop")
		analyze = flag.Bool("analyze", false, "run the forensic analyzer (attack signatures); exit 3 on findings")
		follow  = flag.Bool("follow", false, "tail a growing capture, printing findings live; exit 3 on findings once the file goes idle")
		idle    = flag.Duration("idle", 2*time.Second, "with -follow: stop once the file has not grown for this long")
		pollMax = flag.Duration("poll-max", 500*time.Millisecond, "with -follow: cap on the exponential poll backoff while the file is quiet")
		ckpPath = flag.String("checkpoint", "", "with -follow: resume scan position + detector state from this sidecar file if it exists, and rewrite it on clean exit")
		stats   = flag.Bool("stats", false, "print scan statistics to stderr: records/sec, bytes/sec, and (when analyzing) capture-time finding latency percentiles")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hcidump [-keys] [-hex] [-usb] [-analyze] [-follow [-idle d] [-checkpoint file]] [-stats] <capture>")
		os.Exit(2)
	}
	if *ckpPath != "" && !*follow {
		fmt.Fprintln(os.Stderr, "hcidump: -checkpoint needs -follow")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()

	// A follow checkpoint repositions the capture file before any reader
	// wraps it, so the counting reader and scanner both start at the
	// resumed offset.
	var ckp *followCheckpoint
	if *follow && *ckpPath != "" {
		ckp, err = readFollowCheckpoint(*ckpPath)
		if err != nil {
			fail(err)
		}
		if ckp != nil {
			if _, err := f.Seek(ckp.offset, io.SeekStart); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "hcidump: resuming from checkpoint: offset %d, frame %d\n", ckp.offset, ckp.frame)
		}
	}

	// -stats routes btsnoop modes through a counting reader and a
	// per-record collector; a nil collector keeps the fast paths exact.
	var st *scanStats
	var in io.Reader = f
	if *stats && !*usb && !*keys {
		cr := &countingReader{r: f}
		st = newScanStats(cr)
		in = cr
	}

	if *follow {
		report, next, scanErr := followFile(in, *idle, *pollMax, os.Stdout, st, ckp)
		st.report(os.Stderr)
		fmt.Print(report.Render())
		if scanErr != nil {
			fail(fmt.Errorf("tailing %s: %w", flag.Arg(0), scanErr))
		}
		if *ckpPath != "" && next != nil {
			if err := writeFollowCheckpoint(*ckpPath, next); err != nil {
				fail(fmt.Errorf("writing checkpoint: %w", err))
			}
			fmt.Fprintf(os.Stderr, "hcidump: checkpoint written: offset %d, frame %d\n", next.offset, next.frame)
		}
		if len(report.Findings) > 0 {
			os.Exit(exitFindings)
		}
		return
	}

	if *usb {
		// The raw URB format has no streaming parser; USB captures are
		// the paper's small PC-side dumps, not multi-gigabyte snoop logs.
		data, err := io.ReadAll(f)
		if err != nil {
			fail(err)
		}
		dumpUSB(data, *keys)
		return
	}

	if *analyze {
		var report *forensics.Report
		if st != nil {
			// The stats collector needs to see every record and every
			// finding as it completes, so run follow's detect loop over
			// the plain reader, printing no live lines; the report is
			// bit-identical to AnalyzeBatch (and so to Analyze).
			sc := snoop.NewBatchScannerSize(in, 256<<10)
			det := forensics.NewDetector()
			detect(sc, det, st, nil)
			if err := sc.Err(); err != nil {
				fail(fmt.Errorf("forensics: parsing capture: %w", err))
			}
			report = det.Finish()
			st.report(os.Stderr)
		} else {
			var err error
			report, err = forensics.AnalyzeBatch(in)
			if err != nil {
				fail(err)
			}
		}
		fmt.Print(report.Render())
		if len(report.Findings) > 0 {
			os.Exit(exitFindings)
		}
		return
	}

	if *keys {
		report, err := forensics.AnalyzeBatch(f)
		if err != nil {
			fail(fmt.Errorf("parsing %s: %w", flag.Arg(0), err))
		}
		if len(report.Exposures) == 0 {
			fmt.Println("no plaintext link keys found")
			return
		}
		for _, e := range report.Exposures {
			fmt.Printf("frame %-5d %-36s peer %s  key %s\n", e.Frame, e.Source, e.Peer, e.Key)
		}
		return
	}

	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	fmt.Fprint(out, snoop.TableHeader())
	sc := snoop.NewBatchScanner(in)
	var b snoop.RecordBatch
	for sc.ScanBatch(&b) {
		for i, rec := range b.Records {
			st.record(rec)
			if row, ok := snoop.SummarizeRecord(b.First+i, rec); ok {
				fmt.Fprint(out, snoop.FormatRow(row))
			}
		}
	}
	st.report(os.Stderr)
	if err := sc.Err(); err != nil {
		out.Flush()
		fail(fmt.Errorf("parsing %s: %w", flag.Arg(0), err))
	}
	if *hex {
		fmt.Fprintln(out)
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			out.Flush()
			fail(err)
		}
		sc := snoop.NewBatchScanner(f)
		var (
			b      snoop.RecordBatch
			hexbuf []byte
		)
		for sc.ScanBatch(&b) {
			for i, rec := range b.Records {
				dir := "TX"
				if rec.Received() {
					dir = "RX"
				}
				hexbuf = usbsniff.AppendHex(hexbuf[:0], rec.Data)
				fmt.Fprintf(out, "%-5d %s %s  %s\n", b.First+i, rec.Timestamp.Format("15:04:05.000000"), dir, hexbuf)
			}
		}
		if err := sc.Err(); err != nil {
			out.Flush()
			fail(err)
		}
	}
	if err := out.Flush(); err != nil {
		fail(err)
	}
}

func dumpUSB(raw []byte, keys bool) {
	if keys {
		for _, k := range usbsniff.ExtractLinkKeys(raw) {
			fmt.Printf("hex offset %-8d peer %s  key %s\n", k.HexOffset, k.Peer, k.Key)
		}
		return
	}
	urbs, err := usbsniff.ParseURBs(raw)
	if err != nil {
		fail(err)
	}
	for i, u := range urbs {
		fmt.Printf("%-5d ep=0x%02x len=%-4d %s\n", i+1, u.Endpoint, len(u.Payload), usbsniff.BinaryToHex(u.Payload))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hcidump:", err)
	os.Exit(1)
}
