package obs

import (
	"sync/atomic"
	"time"
)

// Beat is a two-word heartbeat for watchdogging a work loop: the loop
// brackets each unit of work with Start/Stop, and a watchdog goroutine
// asks Stalled whether the loop has been inside one unit for longer
// than its budget. Both sides are lock-free atomics, so the bracket
// costs two stores on the hot path and a Beat can be polled from any
// goroutine. The idle state (between Stop and the next Start) never
// reads as stalled — only a unit of work that does not finish does.
//
// A nil *Beat is a no-op on every method, matching the package's
// nil-receiver convention (a nil *Histogram is a no-op sink too).
type Beat struct {
	busy atomic.Bool
	at   atomic.Int64 // unix nanos of the last Start
}

// Start marks the beginning of one unit of work.
func (b *Beat) Start() {
	if b == nil {
		return
	}
	// Order matters for the polling side: publish the timestamp before
	// the busy flag so a watchdog that observes busy==true never reads a
	// stale start time from the previous unit.
	b.at.Store(time.Now().UnixNano())
	b.busy.Store(true)
}

// Stop marks the end of the unit started last.
func (b *Beat) Stop() {
	if b == nil {
		return
	}
	b.busy.Store(false)
}

// Stalled reports whether the loop has been inside a single unit of
// work for at least `after` as of `now`. after <= 0 never stalls.
func (b *Beat) Stalled(now time.Time, after time.Duration) bool {
	if b == nil || after <= 0 || !b.busy.Load() {
		return false
	}
	return now.Sub(time.Unix(0, b.at.Load())) >= after
}
