// Package obs is the repository's allocation-conscious observability
// core: lock-free counters, bounded log2-bucketed latency histograms
// with quantile snapshots, and span-style stage timers. The live daemon
// (internal/sentinel), the campaign engine's progress hook
// (internal/campaign), and the CLI stats modes (hcidump -stats) are all
// built on it.
//
// Two properties are contractual:
//
//   - Zero cost when disabled. Every method is a no-op on a nil
//     receiver, so instrumentation points can be compiled in
//     unconditionally and pay nothing — not even a clock read — until a
//     caller wires a live instrument in.
//
//   - No determinism hazards. Instruments observe wall time only and
//     never feed anything back into the code they measure; the
//     simulator's virtual clock and seeded RNG streams are untouched,
//     so an instrumented sweep produces bit-identical rows to a bare
//     one.
//
// A Histogram costs a fixed ~600 bytes regardless of how many
// observations it absorbs (64 power-of-two buckets spanning 1 ns to
// ~292 years), and Observe is a handful of atomic adds — safe for
// arbitrarily many goroutines without locks. Quantiles are estimated by
// interpolating within the bucket containing the rank, so they carry at
// most one octave of error; min, max, count, and mean are exact.
package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a lock-free monotonic counter. The zero value is ready to
// use; a nil *Counter is a no-op sink.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count; zero on a nil receiver.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds observations
// whose nanosecond duration has bit length i, i.e. d in [2^(i-1), 2^i).
// 64 buckets cover every representable time.Duration.
const histBuckets = 64

// Histogram is a bounded log2-bucketed latency histogram. Observations
// are binned by the bit length of their nanosecond duration, so the
// memory footprint is fixed and Observe is wait-free (atomic adds on
// the bucket, count, sum, and min/max). The zero value is ready to use;
// a nil *Histogram is a no-op sink, which is how call sites stay free
// when instrumentation is off.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64 // nanoseconds; exact
	minP1   atomic.Int64 // min+1 nanoseconds; 0 means "no data yet"
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations are clamped to zero
// (the clock stepped backwards; still one observation). No-op on a nil
// receiver.
func (h *Histogram) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n observations of the same duration, leaving the
// histogram exactly as n Observe(d) calls would, for the cost of one:
// a burst of findings completed by one batch shares its latency. No-op
// on a nil receiver or when n is 0.
func (h *Histogram) ObserveN(d time.Duration, n uint64) {
	if h == nil || n == 0 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Min is stored as ns+1 so the zero value of the field reads as
	// "unset" and the first observation always claims it.
	for {
		cur := h.minP1.Load()
		if cur != 0 && ns+1 >= cur {
			break
		}
		if h.minP1.CompareAndSwap(cur, ns+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))&(histBuckets-1)].Add(n)
	h.count.Add(n)
	h.sum.Add(ns * int64(n))
}

// Since records the time elapsed since t0. No-op on a nil receiver or a
// zero t0 (the "not sampled" sentinel).
func (h *Histogram) Since(t0 time.Time) {
	if h == nil || t0.IsZero() {
		return
	}
	h.Observe(time.Since(t0))
}

// Snapshot is a point-in-time summary of a Histogram, shaped for JSON
// (all latencies in microseconds). Count and Mean are exact; quantiles
// are bucket-interpolated (at most one octave of error).
type Snapshot struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	MinUS  float64 `json:"min_us"`
	MaxUS  float64 `json:"max_us"`
	P50US  float64 `json:"p50_us"`
	P90US  float64 `json:"p90_us"`
	P99US  float64 `json:"p99_us"`
}

// Snapshot summarizes the histogram. Under concurrent Observe calls the
// fields are each individually consistent but may straddle observations
// (the count can lag a bucket bump by one); callers get a monotone,
// never-torn view. A nil receiver returns the zero Snapshot.
func (h *Histogram) Snapshot() Snapshot {
	return Fold(h)
}

// Fold summarizes several histograms as if every observation had been
// recorded into one: bucket counts, totals, and sums add; min and max
// take the extremes; quantiles interpolate over the merged buckets.
// This is how sharded instruments (one Histogram per shard, bumped
// contention-free on its own cache lines) fold back into a single
// operator-facing summary at snapshot time — the shards pay no
// synchronization on the hot path and Fold pays the merge cost once per
// scrape. Nil entries are skipped; no histograms (or all-empty) returns
// the zero Snapshot. Fold(h) is exactly h.Snapshot().
func Fold(hs ...*Histogram) Snapshot {
	var counts [histBuckets]uint64
	var total uint64
	var sum int64
	minNS := int64(-1)
	var maxNS int64
	for _, h := range hs {
		if h == nil {
			continue
		}
		for i := range counts {
			c := h.buckets[i].Load()
			counts[i] += c
			total += c
		}
		sum += h.sum.Load()
		if mp1 := h.minP1.Load(); mp1 != 0 {
			if m := mp1 - 1; minNS < 0 || m < minNS {
				minNS = m
			}
		}
		if mx := h.max.Load(); mx > maxNS {
			maxNS = mx
		}
	}
	if total == 0 {
		return Snapshot{}
	}
	if minNS < 0 {
		minNS = 0 // writer between bucket add and min store; transient
	}
	s := Snapshot{
		Count:  total,
		MeanUS: float64(sum) / float64(total) / 1e3,
		MinUS:  float64(minNS) / 1e3,
		MaxUS:  float64(maxNS) / 1e3,
	}
	s.P50US = quantile(&counts, total, 0.50, minNS, maxNS)
	s.P90US = quantile(&counts, total, 0.90, minNS, maxNS)
	s.P99US = quantile(&counts, total, 0.99, minNS, maxNS)
	return s
}

// quantile locates the bucket containing rank q·total and interpolates
// linearly inside it, clamping to the exact observed min/max so the
// tails never report impossible values.
func quantile(counts *[histBuckets]uint64, total uint64, q float64, minNS, maxNS int64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		// Bucket i spans [2^(i-1), 2^i) ns (bucket 0 is exactly 0).
		lo, hi := float64(0), float64(1)
		if i > 0 {
			lo = float64(int64(1) << (i - 1))
			hi = lo * 2
		}
		frac := 0.5
		if c > 0 {
			frac = (rank - prev) / float64(c)
		}
		ns := lo + (hi-lo)*frac
		if ns < float64(minNS) {
			ns = float64(minNS)
		}
		if ns > float64(maxNS) {
			ns = float64(maxNS)
		}
		return ns / 1e3
	}
	return float64(maxNS) / 1e3
}

// String renders the snapshot compactly for CLI stats lines.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d p50=%s p90=%s p99=%s max=%s",
		s.Count, usToString(s.P50US), usToString(s.P90US), usToString(s.P99US), usToString(s.MaxUS))
}

func usToString(us float64) string {
	return time.Duration(us * 1e3).Round(time.Microsecond).String()
}

// Span is a span-style stage timer: Begin captures the clock, End
// observes the elapsed time into the histogram. A Span started against
// a nil histogram holds no clock reading and End is free — the
// zero-cost-when-disabled contract extended to paired call sites.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// Begin starts a span against h. When h is nil the returned span is
// inert (no clock read happens at either end).
func Begin(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End stops the span and records the elapsed time.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.t0))
	}
}
