package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNilInstrumentsAreNoOps pins the zero-cost-when-disabled contract:
// every exported method must be safe — and allocation-free — on a nil
// receiver, because call sites compile instrumentation in
// unconditionally and rely on nil to turn it off.
func TestNilInstrumentsAreNoOps(t *testing.T) {
	var h *Histogram
	h.Observe(time.Millisecond)
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("nil histogram snapshot not zero: %+v", s)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(time.Second)
	}); allocs != 0 {
		t.Fatalf("nil instruments allocated %.1f per op", allocs)
	}
}

// TestHistogramExactFields checks the exactly-tracked fields: count,
// mean, min, max.
func TestHistogramExactFields(t *testing.T) {
	h := &Histogram{}
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.MinUS != 1000 || s.MaxUS != 3000 {
		t.Fatalf("min/max = %v/%v µs, want 1000/3000", s.MinUS, s.MaxUS)
	}
	if s.MeanUS != 2000 {
		t.Fatalf("mean = %v µs, want 2000", s.MeanUS)
	}
}

// TestHistogramQuantiles checks the bucket-interpolated quantiles stay
// within their one-octave error bound and are ordered.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations at 100µs, 10 slow ones at 10ms: p50 must land
	// near the fast mode, p99 near the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(10 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P50US < 50 || s.P50US > 200 {
		t.Fatalf("p50 = %v µs, want within an octave of 100", s.P50US)
	}
	if s.P99US < 5000 || s.P99US > 10000 {
		t.Fatalf("p99 = %v µs, want within an octave of 10000 (clamped to max)", s.P99US)
	}
	if !(s.P50US <= s.P90US && s.P90US <= s.P99US && s.P99US <= s.MaxUS) {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.MinUS > s.P50US {
		t.Fatalf("p50 below min: %+v", s)
	}
}

// TestHistogramNegativeAndZero pins clamping: a backwards clock step
// counts as a zero-duration observation instead of corrupting buckets.
func TestHistogramNegativeAndZero(t *testing.T) {
	h := &Histogram{}
	h.Observe(-time.Second)
	h.Observe(0)
	s := h.Snapshot()
	if s.Count != 2 || s.MinUS != 0 || s.MaxUS != 0 {
		t.Fatalf("clamped snapshot wrong: %+v", s)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// the atomic counters must agree afterwards, and -race must stay quiet.
func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*per+i) * time.Microsecond)
				_ = h.Snapshot() // concurrent reads must be safe too
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("lost observations: hist=%d want %d", s.Count, workers*per)
	}
	if s.MinUS != 0 {
		t.Fatalf("min = %v µs, want 0", s.MinUS)
	}
	if want := float64((workers*per - 1) * 1000 / 1000); s.MaxUS != want {
		t.Fatalf("max = %v µs, want %v", s.MaxUS, want)
	}
}

// TestFoldMergesHistograms pins Fold's defining property: folding N
// histograms yields the same snapshot as observing every duration into
// one — sharded instruments must summarize exactly like the shared
// instrument they replaced.
func TestFoldMergesHistograms(t *testing.T) {
	durations := []time.Duration{
		0, time.Nanosecond, 100 * time.Microsecond, 100 * time.Microsecond,
		3 * time.Millisecond, 10 * time.Millisecond, time.Second,
	}
	one := &Histogram{}
	shards := []*Histogram{{}, {}, {}}
	for i, d := range durations {
		one.Observe(d)
		shards[i%len(shards)].Observe(d)
	}
	want := one.Snapshot()
	got := Fold(shards...)
	if got != want {
		t.Fatalf("Fold:\n got %+v\nwant %+v", got, want)
	}
	// Nil entries are skipped, single-histogram Fold is Snapshot.
	if got := Fold(nil, shards[0], nil); got != shards[0].Snapshot() {
		t.Fatalf("Fold with nils: %+v", got)
	}
	if got := Fold(); got != (Snapshot{}) {
		t.Fatalf("empty Fold not zero: %+v", got)
	}
	// Min/max come from different shards; check they survive the merge.
	if want.MinUS != 0 || want.MaxUS != 1e6 {
		t.Fatalf("fixture min/max unexpected: %+v", want)
	}
}

// TestSnapshotJSONShape pins the wire format other layers embed into
// /metrics: the exact key set, in microsecond units.
func TestSnapshotJSONShape(t *testing.T) {
	raw, err := json.Marshal(Snapshot{Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{"count", "mean_us", "min_us", "max_us", "p50_us", "p90_us", "p99_us"}
	if len(m) != len(want) {
		t.Fatalf("snapshot JSON has %d keys, want %d: %s", len(m), len(want), raw)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Fatalf("snapshot JSON missing %q: %s", k, raw)
		}
	}
}

// BenchmarkObserve is the hot-path cost: a few atomic adds, no
// allocations.
func BenchmarkObserve(b *testing.B) {
	h := &Histogram{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
