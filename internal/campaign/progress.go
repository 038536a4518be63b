package campaign

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Progress is the campaign engine's live telemetry sink: Run and
// RunRetry bump it as trials complete, so an operator watching a
// multi-million-trial sweep sees throughput, retry pressure, and an ETA
// instead of a silent prompt. One Progress can span several campaigns
// (a sweep like the degraded-channel matrix runs many back to back);
// totals accumulate and the rate covers the whole span.
//
// Everything is lock-free counters plus one latency histogram
// (internal/obs), updated after a trial's result is already written to
// its slot — observation never feeds back into trial scheduling or
// seeding, so instrumented rows are bit-identical to bare ones at any
// worker count. A nil *Progress is a no-op: the engine pays nothing,
// not even clock reads, when nobody is watching.
type Progress struct {
	startNS atomic.Int64 // wall nanos of the first Begin; 0 = not started
	total   atomic.Int64
	done    atomic.Int64
	failed  atomic.Int64
	retries atomic.Int64
	latency obs.Histogram // wall time per trial execution (attempts included)
}

// Begin registers n more planned trials. The engine calls it at the top
// of every Run; callers composing their own loops may call it directly.
// No-op on a nil receiver.
func (p *Progress) Begin(n int) {
	if p == nil {
		return
	}
	p.startNS.CompareAndSwap(0, time.Now().UnixNano())
	p.total.Add(int64(n))
}

// trialDone records one finished trial (all retries spent) and its wall
// time. No-op on a nil receiver.
func (p *Progress) trialDone(err error, d time.Duration) {
	if p == nil {
		return
	}
	p.done.Add(1)
	if err != nil {
		p.failed.Add(1)
	}
	p.latency.Observe(d)
}

// retried records one retry (an extra attempt beyond a trial's first).
// No-op on a nil receiver.
func (p *Progress) retried() {
	if p == nil {
		return
	}
	p.retries.Add(1)
}

// ProgressSnapshot is a point-in-time view of a Progress.
type ProgressSnapshot struct {
	// Total is the planned trial count registered so far; Done how many
	// finished (Failed of those with a final error). Retries counts
	// extra attempts RunRetry spent beyond first tries.
	Total, Done, Failed, Retries int64
	// Elapsed is wall time since the first Begin.
	Elapsed time.Duration
	// TrialsPerSec is the completion rate over Elapsed.
	TrialsPerSec float64
	// ETA estimates time to finish the currently registered Total at the
	// observed rate; zero until a rate exists or when nothing remains.
	// Sweeps that register campaigns incrementally will see it grow as
	// later campaigns Begin.
	ETA time.Duration
	// Latency summarizes per-trial wall time (retries included).
	Latency obs.Snapshot
}

// Snapshot assembles the current counters. Safe concurrently with the
// engine; a nil receiver returns the zero snapshot.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	s := ProgressSnapshot{
		Total:   p.total.Load(),
		Done:    p.done.Load(),
		Failed:  p.failed.Load(),
		Retries: p.retries.Load(),
		Latency: p.latency.Snapshot(),
	}
	if start := p.startNS.Load(); start != 0 {
		s.Elapsed = time.Duration(time.Now().UnixNano() - start)
	}
	if s.Elapsed > 0 && s.Done > 0 {
		s.TrialsPerSec = float64(s.Done) / s.Elapsed.Seconds()
		if rem := s.Total - s.Done; rem > 0 {
			s.ETA = time.Duration(float64(rem) / s.TrialsPerSec * float64(time.Second))
		}
	}
	return s
}

// String renders the snapshot as the one-line status the reporters
// print.
func (s ProgressSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trials %d/%d", s.Done, s.Total)
	if s.TrialsPerSec > 0 {
		fmt.Fprintf(&b, " · %.1f/s", s.TrialsPerSec)
	}
	if s.Retries > 0 {
		fmt.Fprintf(&b, " · %d retries", s.Retries)
	}
	if s.Failed > 0 {
		fmt.Fprintf(&b, " · %d failed", s.Failed)
	}
	if s.Latency.Count > 0 {
		fmt.Fprintf(&b, " · trial p50 %s", time.Duration(s.Latency.P50US*1e3).Round(time.Microsecond))
	}
	if s.ETA > 0 {
		fmt.Fprintf(&b, " · ETA %s", s.ETA.Round(time.Second))
	}
	return b.String()
}

// Report starts a goroutine that rewrites a one-line status to w (\r,
// terminal style) every interval until the returned stop function is
// called; stop prints the final state on its own line. Values <= 0
// select one second. The reporter only reads counters, so it can watch
// a sweep without perturbing it.
func (p *Progress) Report(w io.Writer, interval time.Duration) (stop func()) {
	if p == nil || w == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				fmt.Fprintf(w, "\rcampaign: %s ", p.Snapshot())
			case <-quit:
				return
			}
		}
	}()
	var once atomic.Bool
	return func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		close(quit)
		<-done
		fmt.Fprintf(w, "\rcampaign: %s\n", p.Snapshot())
	}
}
