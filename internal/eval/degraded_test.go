package eval

import (
	"reflect"
	"testing"
)

func TestDegradedSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	const trials = 4
	want, err := RunDegradedSweepWorkers(31, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		got, err := RunDegradedSweepWorkers(31, trials, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("degraded sweep differs between 1 and %d workers:\n%+v\nvs\n%+v", w, got, want)
		}
	}
}

func TestDegradedSweepOutcomes(t *testing.T) {
	const trials = 6
	rows, err := RunDegradedSweepWorkers(31, trials, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("want >= 4 loss settings, got %d", len(rows))
	}
	byLabel := map[string]DegradedRow{}
	for _, r := range rows {
		if r.Trials <= 0 {
			t.Fatalf("row %q ran no trials: %+v", r.Label, r)
		}
		byLabel[r.Label] = r
	}

	// The clean row is the zero plan: everything must behave exactly like
	// the faultless evaluation — full success across the board.
	clean, ok := byLabel["clean"]
	if !ok {
		t.Fatal("sweep lacks the clean reference row")
	}
	if clean.PlanSpec != "none" {
		t.Fatalf("clean row plan spec = %q", clean.PlanSpec)
	}
	if clean.ExtractionOK != trials || clean.PageBlockingOK != trials || clean.LegitPairOK != trials {
		t.Fatalf("clean channel must be all-success: %+v", clean)
	}
	if clean.Detected != clean.PageBlockingOK {
		t.Fatalf("forensics must detect every clean-channel MITM: %+v", clean)
	}
	if clean.MeanAttempts != 1 {
		t.Fatalf("clean channel must never retry: %+v", clean)
	}
	if clean.MeanLossRate != 0 {
		t.Fatalf("clean channel reported loss: %+v", clean)
	}

	// Acceptance criterion: legitimate pairing still succeeds at <= 5%
	// uniform loss thanks to baseband retransmission.
	for _, label := range []string{"2% loss", "5% loss"} {
		r, ok := byLabel[label]
		if !ok {
			t.Fatalf("sweep lacks the %q row", label)
		}
		if r.LegitPairOK != trials {
			t.Fatalf("legitimate pairing must survive %s via ARQ: %+v", label, r)
		}
		if r.MeanLossRate <= 0 {
			t.Fatalf("%s row measured no loss — injector not consulted? %+v", label, r)
		}
	}
}

func TestRenderDegraded(t *testing.T) {
	out := RenderDegraded([]DegradedRow{
		{Label: "clean", PlanSpec: "none", Trials: 5, ExtractionOK: 5, MeanAttempts: 1, PageBlockingOK: 5, Detected: 5, MeanDetectFraction: 0.4, LegitPairOK: 5},
		{Label: "bursty", PlanSpec: "drop=0.02,burst=0.02:0.25:0.6", Trials: 5, ExtractionOK: 4, MeanAttempts: 1.4, PageBlockingOK: 3, LegitPairOK: 4},
	})
	for _, want := range []string{"clean", "bursty", "5/5", "40%", "-"} {
		if !containsLine(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func containsLine(s, sub string) bool {
	return len(s) > 0 && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}
