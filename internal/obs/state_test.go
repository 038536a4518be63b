package obs

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func observeSet(h *Histogram, ds []time.Duration) {
	for _, d := range ds {
		h.Observe(d)
	}
}

func randDurations(r *rand.Rand, n int) []time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(r.Int63n(int64(10 * time.Millisecond)))
	}
	return ds
}

// State → Restore → Snapshot must equal the live Snapshot exactly: the
// raw form loses nothing a Snapshot uses.
func TestStateRestoreRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		h := &Histogram{}
		observeSet(h, randDurations(r, 1+r.Intn(500)))
		live := h.Snapshot()
		restored := h.State().Restore().Snapshot()
		if !reflect.DeepEqual(live, restored) {
			t.Fatalf("trial %d: restore drift:\nlive     %+v\nrestored %+v", trial, live, restored)
		}
	}
}

// ObserveN(d, n) must leave the raw state exactly as n Observe(d) calls
// do, on an empty histogram and on one that already holds data; n = 0
// and a nil receiver must change nothing.
func TestObserveNMatchesObserve(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		prior := randDurations(r, r.Intn(20))
		d := time.Duration(r.Int63n(int64(time.Second))) - time.Millisecond
		n := uint64(r.Intn(40))
		one, bulk := &Histogram{}, &Histogram{}
		observeSet(one, prior)
		observeSet(bulk, prior)
		for i := uint64(0); i < n; i++ {
			one.Observe(d)
		}
		bulk.ObserveN(d, n)
		if want, got := one.State(), bulk.State(); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: ObserveN(%v, %d) drift:\nObserve  %+v\nObserveN %+v", trial, d, n, want, got)
		}
	}
	var nilH *Histogram
	nilH.ObserveN(time.Millisecond, 3)
	h := &Histogram{}
	h.ObserveN(time.Millisecond, 0)
	if st := h.State(); !reflect.DeepEqual(st, (&Histogram{}).State()) {
		t.Fatalf("ObserveN with n = 0 recorded %+v", st)
	}
}

// JSON round-trip: persistence-shaped states survive encode/decode.
func TestStateJSONRoundTrip(t *testing.T) {
	h := &Histogram{}
	observeSet(h, []time.Duration{time.Microsecond, 3 * time.Millisecond, 40 * time.Nanosecond})
	st := h.State()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramState
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, back) {
		t.Fatalf("JSON drift:\nout  %+v\nback %+v", st, back)
	}
	if !reflect.DeepEqual(st.Restore().Snapshot(), h.Snapshot()) {
		t.Fatal("snapshot drift after JSON round trip")
	}
}

// Merging two states must agree with Fold over the two live histograms
// on everything except MinUS when a delta made the min unknowable —
// here both states are cumulative-from-empty so even min is exact.
func TestStateMergeMatchesFold(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a, b := &Histogram{}, &Histogram{}
		observeSet(a, randDurations(r, 1+r.Intn(300)))
		observeSet(b, randDurations(r, 1+r.Intn(300)))
		want := Fold(a, b)
		got := SnapshotOf(a.State(), b.State())
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: merge drift:\nfold  %+v\nmerge %+v", trial, want, got)
		}
		// Merge is associative enough for our use: state-level Merge then
		// Snapshot equals SnapshotOf of the parts.
		merged := a.State().Merge(b.State())
		if got2 := merged.Restore().Snapshot(); !reflect.DeepEqual(want, got2) {
			t.Fatalf("trial %d: Merge drift:\nfold  %+v\nMerge %+v", trial, want, got2)
		}
	}
}

// Interval deltas: cumulative state at t2 minus cumulative state at t1
// must describe exactly the observations in between — count, sum, and
// buckets exact; min unknown (-1) unless the earlier state was empty;
// max an upper bound.
func TestStateSubIsIntervalDelta(t *testing.T) {
	h := &Histogram{}
	observeSet(h, []time.Duration{time.Millisecond, 2 * time.Millisecond})
	s1 := h.State()
	interval := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond}
	observeSet(h, interval)
	s2 := h.State()

	d := s2.Sub(s1)
	if d.Count != 3 {
		t.Fatalf("delta count %d, want 3", d.Count)
	}
	wantSum := int64(28 * time.Millisecond)
	if d.SumNS != wantSum {
		t.Fatalf("delta sum %d, want %d", d.SumNS, wantSum)
	}
	if d.MinNS != -1 {
		t.Fatalf("delta min %d, want -1 (unknowable)", d.MinNS)
	}
	if d.MaxNS != s2.MaxNS {
		t.Fatalf("delta max %d, want cumulative max %d", d.MaxNS, s2.MaxNS)
	}
	// The delta buckets alone must reproduce the interval's quantiles.
	ih := &Histogram{}
	observeSet(ih, interval)
	dSnap := d.Restore().Snapshot()
	iSnap := ih.Snapshot()
	if dSnap.Count != iSnap.Count || dSnap.P50US != iSnap.P50US || dSnap.P99US != iSnap.P99US {
		t.Fatalf("delta quantile drift:\ninterval %+v\ndelta    %+v", iSnap, dSnap)
	}
	// Sub from an empty baseline is exact in every field.
	if d0 := s2.Sub(HistogramState{MinNS: -1}); !reflect.DeepEqual(d0.Restore().Snapshot(), h.Snapshot()) {
		t.Fatal("Sub from empty baseline is not the identity")
	}
	// Summing consecutive deltas restores the cumulative whole.
	if sum := s1.Merge(d); sum.Count != s2.Count || sum.SumNS != s2.SumNS {
		t.Fatalf("delta + previous != cumulative: %+v vs %+v", sum, s2)
	}
	// An empty interval subtracts to the empty state.
	if dd := s2.Sub(s2); !dd.Empty() {
		t.Fatalf("self-subtraction not empty: %+v", dd)
	}
}

func TestStateTrimsTrailingZeroBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(100 * time.Nanosecond) // bucket index bits.Len64(100) = 7
	st := h.State()
	if len(st.Buckets) != 8 {
		t.Fatalf("buckets not trimmed: len %d, want 8", len(st.Buckets))
	}
	var empty HistogramState
	if h2 := (*Histogram)(nil); !h2.State().Empty() || h2.State().MinNS != -1 {
		t.Fatal("nil histogram state not empty/unknown-min")
	}
	if !empty.Sub(empty).Empty() {
		t.Fatal("empty sub not empty")
	}
	if got := SnapshotOf(empty); got != (Snapshot{}) {
		t.Fatalf("SnapshotOf(empty) = %+v", got)
	}
}
