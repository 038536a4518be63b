// Package campaign is the deterministic parallel execution engine behind
// the simulator's evaluation sweeps. Every paper artifact (Table I/II,
// the figures, the ablation and mitigation sweeps) is built from hundreds
// of independent trials — one hermetic testbed per trial, seeded from the
// trial index — and the engine dispatches those trials to a worker pool
// while guaranteeing results that are bit-identical to a serial loop.
//
// Determinism contract: a trial function must depend only on its trial
// index and the seed derived from it, never on shared mutable state or on
// scheduling order. Under that contract Run's output is invariant across
// worker counts because every result is written to the slot of its trial
// index and errors are reported for the lowest failing index; Search
// returns the lowest matching index, exactly what a serial first-match
// scan would find.
package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a campaign run.
type Config struct {
	// Workers is the number of worker goroutines. Values <= 0 select
	// runtime.GOMAXPROCS(0). Workers == 1 runs trials sequentially on the
	// calling goroutine in index order — the serial reference path.
	Workers int
	// BlockSize is the shard width Search hands to one worker at a time;
	// values <= 0 select 64. Smaller blocks cancel earlier on a hit,
	// larger blocks amortize coordination over cheap predicates.
	BlockSize int
	// Progress, when non-nil, receives live telemetry (completed trials,
	// per-trial wall latency, retry counts) as the engine runs. It is
	// observation only — results, seeds, and scheduling are untouched, so
	// rows stay bit-identical with or without it. Nil costs nothing.
	Progress *Progress
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 64
}

// DeriveSeed maps (base, domain, trial) to a stable per-trial seed. The
// domain string keeps distinct sweeps (per device model, per jitter
// spread, ...) on distinct seed streams even when their trial indices
// overlap, mirroring how the paper's per-device measurements scatter
// independently. The derivation is pure, so trials can be re-run or
// re-ordered freely without disturbing any other trial.
func DeriveSeed(base int64, domain string, trial int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", domain, trial)
	return base + int64(h.Sum64()%1_000_003)
}

// Run executes trial(ctx, i) for every i in [0, n) on a pool of
// cfg.Workers goroutines and returns the results in trial order. All
// trials are attempted (no early abort on trial errors, matching a sweep
// that wants its full row set); if any trial fails, the error of the
// lowest failing index is returned alongside the results gathered. When
// ctx is cancelled, unstarted trials fail with ctx.Err().
func Run[T any](ctx context.Context, n int, cfg Config, trial func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	cfg.Progress.Begin(n)
	results := make([]T, n)
	errs := make([]error, n)
	// runOne executes trial i into its slot, reporting wall time to the
	// progress sink. The clock is read only when someone is watching.
	runOne := func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			cfg.Progress.trialDone(err, 0)
			return
		}
		var t0 time.Time
		if cfg.Progress != nil {
			t0 = time.Now()
		}
		results[i], errs[i] = trial(ctx, i)
		if cfg.Progress != nil {
			cfg.Progress.trialDone(errs[i], time.Since(t0))
		}
	}
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			runOne(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("campaign: trial %d: %w", i, err)
		}
	}
	return results, nil
}

// Search finds the lowest index i in [0, n) for which pred(i) is true,
// evaluating candidates on cfg.Workers goroutines with early
// cancellation: once a match is known, no block of candidates above it is
// started and in-flight blocks stop at the match boundary. The found
// index matches a serial first-match scan for any worker count (or -1
// when nothing matches or ctx is cancelled first). evaluated reports how
// many predicate calls actually ran; with one worker it equals the serial
// count (found+1 on a hit), with more workers it may overshoot.
//
// pred must be safe for concurrent use and, like Run's trial functions,
// depend only on its index.
func Search(ctx context.Context, n int, cfg Config, pred func(i int) bool) (found, evaluated int) {
	if n <= 0 {
		return -1, 0
	}
	w := cfg.workers()
	if w <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return -1, i
			}
			evaluated++
			if pred(i) {
				return i, evaluated
			}
		}
		return -1, evaluated
	}

	bs := cfg.blockSize()
	nBlocks := (n + bs - 1) / bs
	if w > nBlocks {
		w = nBlocks
	}
	var nextBlock, evals atomic.Int64
	var best atomic.Int64
	best.Store(int64(n)) // sentinel: no match yet
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(nextBlock.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				start := b * bs
				// Any match in this block would sit above the best known
				// match, and every lower block is already claimed — done.
				if int64(start) >= best.Load() {
					return
				}
				end := start + bs
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if int64(i) >= best.Load() || ctx.Err() != nil {
						break
					}
					evals.Add(1)
					if pred(i) {
						for {
							cur := best.Load()
							if int64(i) >= cur || best.CompareAndSwap(cur, int64(i)) {
								break
							}
						}
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	evaluated = int(evals.Load())
	if got := best.Load(); got < int64(n) {
		return int(got), evaluated
	}
	return -1, evaluated
}
