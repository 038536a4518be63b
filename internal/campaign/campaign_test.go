package campaign

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderStableAcrossWorkerCounts(t *testing.T) {
	// The trial function is a pure function of the index, so every worker
	// count must produce the identical result slice.
	trial := func(_ context.Context, i int) (int64, error) {
		return DeriveSeed(42, "order", i) * int64(i+1), nil
	}
	want, err := Run(context.Background(), 257, Config{Workers: 1}, trial)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 8, 16} {
		got, err := Run(context.Background(), 257, Config{Workers: w}, trial)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d got %d want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestRunReportsLowestFailingTrial(t *testing.T) {
	sentinel := errors.New("boom")
	trial := func(_ context.Context, i int) (int, error) {
		if i == 7 || i == 31 {
			return 0, sentinel
		}
		return i, nil
	}
	for _, w := range []int{1, 4} {
		got, err := Run(context.Background(), 64, Config{Workers: w}, trial)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want wrapped sentinel", w, err)
		}
		if want := "campaign: trial 7: boom"; err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", w, err.Error(), want)
		}
		// Successful trials still land in their slots.
		if got[8] != 8 || got[63] != 63 {
			t.Fatalf("workers=%d: partial results corrupted: %v", w, got[:9])
		}
	}
}

func TestRunAllTrialsExecuteDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := Run(context.Background(), 50, Config{Workers: 4}, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i%2 == 0 {
			return 0, errors.New("even trials fail")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got != 50 {
		t.Fatalf("ran %d trials, want all 50 (sweeps need their full row set)", got)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	_, err := Run(ctx, 1000, Config{Workers: 2}, func(ctx context.Context, i int) (int, error) {
		if started.Add(1) == 5 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got >= 1000 {
		t.Fatal("cancellation did not stop trial dispatch")
	}
}

func TestDeriveSeedStableAndDomainSeparated(t *testing.T) {
	if DeriveSeed(1, "a", 0) != DeriveSeed(1, "a", 0) {
		t.Fatal("DeriveSeed must be pure")
	}
	if DeriveSeed(1, "a", 0) == DeriveSeed(1, "b", 0) {
		t.Fatal("domains must separate seed streams")
	}
	if DeriveSeed(1, "a", 0) == DeriveSeed(1, "a", 1) {
		t.Fatal("trials must separate seed streams")
	}
	// The derivation must stay plain FNV-1a over "domain/trial" — eval's
	// historical per-device streams (and thus every published table) ride
	// on it.
	if got, want := DeriveSeed(0, "x", 3), int64(0); got == want {
		t.Logf("seed collision with 0 is fine, just unlikely: %d", got)
	}
}

func TestSearchFindsLowestMatch(t *testing.T) {
	// Matches at 100, 3000, 9000: every worker count must report 100.
	pred := func(i int) bool { return i == 100 || i == 3000 || i == 9000 }
	for _, w := range []int{1, 2, 4, 8} {
		for _, bs := range []int{1, 7, 64, 500} {
			found, evaluated := Search(context.Background(), 10000, Config{Workers: w, BlockSize: bs}, pred)
			if found != 100 {
				t.Fatalf("workers=%d bs=%d: found %d, want 100", w, bs, found)
			}
			if evaluated < 1 {
				t.Fatalf("workers=%d bs=%d: evaluated=%d", w, bs, evaluated)
			}
		}
	}
}

func TestSearchNoMatch(t *testing.T) {
	for _, w := range []int{1, 4} {
		found, evaluated := Search(context.Background(), 5000, Config{Workers: w}, func(int) bool { return false })
		if found != -1 {
			t.Fatalf("workers=%d: found %d, want -1", w, found)
		}
		if evaluated != 5000 {
			t.Fatalf("workers=%d: evaluated %d, want 5000 (exhaustive)", w, evaluated)
		}
	}
}

func TestSearchSerialCountsLikeALoop(t *testing.T) {
	found, evaluated := Search(context.Background(), 10000, Config{Workers: 1}, func(i int) bool { return i == 8730 })
	if found != 8730 || evaluated != 8731 {
		t.Fatalf("found=%d evaluated=%d, want 8730/8731", found, evaluated)
	}
}

func TestSearchEarlyCancelSkipsWork(t *testing.T) {
	// With the match in the first block, a parallel search must not come
	// anywhere near exhausting a huge space.
	var evals atomic.Int64
	found, _ := Search(context.Background(), 1<<20, Config{Workers: 4, BlockSize: 64}, func(i int) bool {
		evals.Add(1)
		return i == 10
	})
	if found != 10 {
		t.Fatalf("found %d", found)
	}
	if got := evals.Load(); got > 1<<16 {
		t.Fatalf("early cancel failed: %d predicate calls for a match at index 10", got)
	}
}

func TestSearchMatchInLastBlock(t *testing.T) {
	n := 1000
	for _, w := range []int{1, 3, 8} {
		found, _ := Search(context.Background(), n, Config{Workers: w, BlockSize: 64}, func(i int) bool { return i == n-1 })
		if found != n-1 {
			t.Fatalf("workers=%d: found %d, want %d", w, found, n-1)
		}
	}
}

func TestSearchEmptySpace(t *testing.T) {
	if found, evaluated := Search(context.Background(), 0, Config{}, func(int) bool { return true }); found != -1 || evaluated != 0 {
		t.Fatalf("empty space: found=%d evaluated=%d", found, evaluated)
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).workers() < 1 {
		t.Fatal("default workers must be at least 1")
	}
	if (Config{}).blockSize() != 64 {
		t.Fatal("default block size must be 64")
	}
	if (Config{Workers: 3, BlockSize: 10}).workers() != 3 {
		t.Fatal("explicit workers ignored")
	}
}

func ExampleRun() {
	// Ten trials, each a pure function of its derived seed; any worker
	// count yields the same ordered results.
	rows, err := Run(context.Background(), 10, Config{Workers: 4}, func(_ context.Context, i int) (string, error) {
		seed := DeriveSeed(1, "example", i)
		return fmt.Sprintf("trial %d ok (seed %d)", i, seed), nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(rows[0], "/", rows[9])
	// Output: trial 0 ok (seed 897477) / trial 9 ok (seed 589674)
}
