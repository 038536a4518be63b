package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no instrumentation for this).
// Step names the phase or ladder rung the span belongs to; the root span
// of every pass has no parent.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent,omitempty"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Step     string `json:"step"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and costs one nil check per call, which is how the untraced
// runs share the traced code paths.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	next  uint64
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// spanRef is an open span; end closes it.
type spanRef struct {
	t     *tracer
	id    uint64
	par   uint64
	name  string
	step  string
	pass  int
	start int64
}

// start opens a span under parent (0 for a pass root).
func (t *tracer) start(parent spanRef, name, step string, pass int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return spanRef{t: t, id: id, par: parent.id, name: name, step: step, pass: pass,
		start: int64(time.Since(t.t0))}
}

// child opens a span under r, in r's step and pass.
func (r spanRef) child(name string) spanRef {
	if r.t == nil {
		return spanRef{}
	}
	return r.t.start(r, name, r.step, r.pass)
}

func (r spanRef) end() {
	t := r.t
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: r.id, Parent: r.par, Name: r.name, Workload: t.workload,
		Step: r.step, Pass: r.pass, StartNS: r.start, EndNS: end})
	t.mu.Unlock()
}

// selfTimes returns, per pass of step, the summed self time in ns of
// every span called name: each span's duration minus the part of it its
// children cover (children that overlap, as concurrent streams do, are
// merged first).
func (t *tracer) selfTimes(step, name string) map[int]int64 { return t.times(step, name, true) }

// totalTimes is selfTimes with the children's time included.
func (t *tracer) totalTimes(step, name string) map[int]int64 { return t.times(step, name, false) }

func (t *tracer) times(step, name string, self bool) map[int]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][][2]int64)
	if self {
		for _, s := range t.spans {
			if s.Parent != 0 && s.Step == step {
				children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
			}
		}
	}
	out := make(map[int]int64)
	for _, s := range t.spans {
		if s.Step == step && s.Name == name {
			out[s.Pass] += s.EndNS - s.StartNS - covered(children[s.ID])
		}
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
