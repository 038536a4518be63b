package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"ingest-sparse", "ingest-dense", "ingest-fanin", "campaign"}

// workload is one named input set: an ingest traffic mix or a campaign.
type workload struct {
	ingest   *ingestSpec
	campaign *campaignSpec
}

// sparseSpec is the default synthetic capture shape: ~3% of records pass
// the prefilter, one finding per ~80 records. Its open-loop rate is about
// a third of the closed-loop capacity on a 2-CPU runner.
var sparseSpec = ingestSpec{streams: 1, records: 2_000_000, rate: 8e6, closedStore: true}

// campaignJob is one job of the campaign workload: 720 attack-matrix
// and 420 Table II trials.
var campaignJob = campaignSpec{attackTrials: 60, tableTrials: 30}

// lookup returns the named workload sized for nproc CPUs.
func lookup(name string, nproc int) (workload, bool) {
	switch name {
	case "ingest-sparse":
		s := sparseSpec
		return workload{ingest: &s}, true
	case "ingest-dense":
		// A session every 8 records: ~10% of records complete a finding,
		// so the reducer, the encoder and the store do most of the work.
		return workload{ingest: &ingestSpec{streams: 1, records: 1_000_000, sessionEvery: 8, rate: 0.6e6, query: true}}, true
	case "ingest-fanin":
		s := sparseSpec
		s.streams = nproc
		s.rate = sparseSpec.rate / float64(nproc)
		return workload{ingest: &s}, true
	case "campaign":
		s := campaignJob
		return workload{campaign: &s}, true
	}
	return workload{}, false
}

// sized applies the run's size overrides to an ingest spec.
func (r *run) sized(spec ingestSpec) ingestSpec {
	if r.opt.records > 0 {
		spec.records = r.opt.records
	}
	return spec
}

// timedSetup runs setup setupRuns times, each from a collected heap and
// a flushed file system, sets setup_s to the median wall time and
// returns the last result. The set-ups come first in a run and the host
// drifts within minutes, so their host factor is that of their own
// probes.
func timedSetup[T any](r *run, setup func() (T, error)) (T, error) {
	var v T
	var times []float64
	var steal stealMeter
	probed := len(r.probe.samples)
	for i := 0; i < setupRuns; i++ {
		var zero T
		v = zero
		runtime.GC()
		syscall.Sync()
		r.probe.sample()
		steal.start()
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		steal.stop()
	}
	r.setHostedAt("setup_s", median(times), -1, steal.share(), hostFactor(r.probe.samples[probed:]))
	return v, nil
}

// setupIngest synthesizes every stream's capture, computes its batch
// reference and open-loop schedule, and starts and stops one daemon with
// its store, as every measured pass does.
func (r *run) setupIngest(spec ingestSpec) ([]*capture, error) {
	caps := make([]*capture, spec.streams)
	for i := range caps {
		c, err := newCapture(snoop.SynthConfig{
			Records: spec.records, Seed: r.opt.seed + int64(i), SessionEvery: spec.sessionEvery,
		}, spec.rate)
		if err != nil {
			return nil, err
		}
		caps[i] = c
	}
	s, err := r.startServer(serverOpts{listen: true, store: true, http: spec.query})
	if err != nil {
		return nil, err
	}
	s.stop()
	s.release()
	return caps, nil
}

// runIngest measures one ingest workload end to end, interleaving three
// kinds of pass: the batch analyzer over every capture (a fifth of the
// time), a closed loop that sends every capture at once, and an open
// loop that sends them on the fixed-rate schedule (two fifths each).
func (r *run) runIngest(spec ingestSpec) error {
	caps, err := timedSetup(r, func() ([]*capture, error) { return r.setupIngest(spec) })
	if err != nil {
		return err
	}
	var serial, closed, p50, p90, qlat, late []float64
	batch := &phase{name: "batch", share: 0.2, pass: func(i int) error {
		if rate := r.batchPass(caps); i >= 0 {
			serial = append(serial, rate)
		}
		return nil
	}}
	closedLoop := &phase{name: "closed", share: 0.4, pass: func(i int) error {
		res, err := r.streamPass(caps, passPlan{opts: serverOpts{listen: true, store: spec.closedStore}})
		if i >= 0 {
			closed = append(closed, res.rate)
		}
		return err
	}}
	openLoop := &phase{name: "open", share: 0.4, pass: func(i int) error {
		res, err := r.streamPass(caps, passPlan{
			opts: serverOpts{listen: true, store: true, http: spec.query},
			open: true, query: spec.query, countQuery: spec.query && i < 0,
		})
		if i >= 0 {
			p50 = append(p50, percentile(res.detect, 0.50))
			p90 = append(p90, percentile(res.detect, 0.90))
			r.res.Samples["latency_ms"] += len(res.detect)
			qlat = append(qlat, res.query...)
			late = append(late, res.late...)
		}
		return err
	}}
	if err := r.measure(1, batch, closedLoop, openLoop); err != nil {
		return err
	}
	r.setHosted("serial_per_s", steadyRate(serial), 1, batch.steal.share())
	r.setHosted("throughput_per_s", steadyRate(closed), 1, closedLoop.steal.share())
	// A pass's percentiles, the quartile of passes the rates take too: a
	// slow spell of the host backs up the passes it lands on, and it can
	// cover half the passes of a run. They are not scaled by the host
	// factor: far below capacity, the tick, wake-ups and hand-offs set
	// them more than compute speed does.
	r.set("latency_p50_ms", steadyLatency(p50))
	r.set("latency_p90_ms", steadyLatency(p90))
	r.info("loadgen_late_p99_ms", "ms", percentile(late, 0.99))
	if spec.query {
		r.info("query_p50_ms", "ms", percentile(qlat, 0.50))
		r.info("query_p95_ms", "ms", percentile(qlat, 0.95))
		r.res.Samples["query_ms"] = len(qlat)
	}
	return nil
}

// batchPass times forensics.AnalyzeBytes, the hcidump -analyze job,
// over every capture in turn and returns records/s. It analyzes every
// capture once untimed first: most batch passes follow a streaming pass,
// and on ingest-dense one that did ran ~11% slower at the median than
// one that followed another batch pass, and the mix of the two moved a
// run's rate.
func (r *run) batchPass(caps []*capture) float64 {
	for _, c := range caps {
		_, _ = forensics.AnalyzeBytes(c.data) // the timed run below checks it
	}
	runtime.GC()
	reps := make([]*forensics.Report, len(caps))
	errs := make([]error, len(caps))
	n := 0
	t0 := time.Now()
	for i, c := range caps {
		reps[i], errs[i] = forensics.AnalyzeBytes(c.data)
		n += c.records
	}
	rate := float64(n) / time.Since(t0).Seconds()
	for i, c := range caps {
		if r.opErr(errs[i], "AnalyzeBytes") {
			r.op(sameFindings(reps[i], c), "AnalyzeBytes findings differ from the batch reference")
		}
	}
	return rate
}

func sameFindings(rep *forensics.Report, c *capture) bool {
	if len(rep.Findings) != len(c.frames) {
		return false
	}
	for i, f := range rep.Findings {
		if f.Frame != c.frames[i] {
			return false
		}
	}
	return true
}

// passPlan says how one streaming pass runs.
type passPlan struct {
	opts serverOpts
	// open sends on each capture's open-loop schedule, else all at once.
	open bool
	// query runs the /query reader while the streams run; countQuery
	// also checks the /query count of each stream's findings afterwards.
	query, countQuery bool
	// shed lets the daemon shed persists while the disk stalls, as it is
	// built to: they are counted in the snapshot instead of failing the
	// pass, and the store must hold every finding that was not shed.
	shed bool
	root spanRef
	// before runs once the streams have ended, before the server stops.
	before func(s *server)
}

// passResult is what one streaming pass measured.
type passResult struct {
	rate   float64   // records/s from the first dial to the last stream end
	detect []float64 // open loop: ms per finding, due time to line arrival
	late   []float64 // open loop: ms each tick started late
	query  []float64 // ms per /query round trip
	snap   sentinel.MetricsSnapshot
}

// streamPass runs every capture through a fresh daemon, one session
// stream each, all at once, and checks the outcome: every stream ends
// clean with all its records and no dropped events or persists (unless
// the plan sheds), its live findings equal the batch reference field by
// field, and the store holds exactly the live findings.
func (r *run) streamPass(caps []*capture, p passPlan) (passResult, error) {
	var res passResult
	s, err := r.startServer(p.opts)
	if err != nil {
		return res, err
	}
	defer s.close()
	var ols []*openLoop
	if p.open {
		t0 := time.Now().Add(2 * tickEvery)
		for range caps {
			ols = append(ols, &openLoop{t0: t0})
		}
	}
	var q *queryReader
	if p.query {
		q = startQueryReader(s.base)
	}
	ids := make([]uint64, len(caps))
	errs := make([]error, len(caps))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range caps {
		var ol *openLoop
		if ols != nil {
			ol = ols[i]
		}
		wg.Add(1)
		go func(i int, c *capture) {
			defer wg.Done()
			sp := p.root.child("sentinel.session")
			ids[i], errs[i] = send(s.addr(), c, ol, sp)
			sp.end()
		}(i, c)
	}
	wg.Wait()
	sums, endErr := s.awaitEnds(len(caps))
	elapsed := time.Since(t0)
	if q != nil {
		q.finish()
		res.query = q.lat
		r.ops(len(q.lat), q.fails, "%d of %d /query requests failed", q.fails, len(q.lat))
	}
	res.snap = s.srv.Snapshot()
	byStream := make(map[uint64]*capture, len(caps))
	records := 0
	for i, c := range caps {
		if r.opErr(errs[i], "session stream") {
			byStream[ids[i]] = c
		}
		records += c.records
	}
	res.rate = float64(records) / elapsed.Seconds()
	r.opErr(endErr, "stream end")
	if p.countQuery {
		for id, c := range byStream {
			r.opErr(queryCount(s.base, id, len(c.want)), "/query findings count")
		}
	}
	if p.before != nil {
		p.before(s)
	}
	s.stop()

	for _, sum := range sums {
		c := byStream[sum.ID]
		r.op(c != nil && sum.Status == sentinel.StatusClean && sum.Records == c.records && sum.EventsDropped == 0,
			"stream %d ended %s with %d records, %d events dropped: %v", sum.ID, sum.Status, sum.Records, sum.EventsDropped, sum.Err)
	}
	arrivals, err := s.out.findings(byStream)
	r.opErr(err, "live vs batch findings")
	dropped := res.snap.Persist.Dropped
	r.op(res.snap.EventsDropped == 0 && (p.shed || dropped == 0),
		"%d events and %d persists dropped", res.snap.EventsDropped, dropped)
	if s.store != nil {
		for id, c := range byStream {
			n, err := s.storedFindings(id)
			ok := n == len(c.want)
			if p.shed {
				ok = n <= len(c.want) && uint64(len(c.want)-n) <= dropped
			}
			r.op(err == nil && ok, "store holds %d findings of stream %d, live %d, %d persists dropped: %v", n, id, len(c.want), dropped, err)
		}
	}
	for i, ol := range ols {
		res.late = append(res.late, ol.late...)
		if got, ok := arrivals[ids[i]]; ok {
			res.detect = append(res.detect, ol.detectLatencies(caps[i], got)...)
		} else {
			// A stream whose findings failed the check has no trustworthy
			// arrivals: every finding counts as never detected.
			for range caps[i].want {
				res.detect = append(res.detect, math.Inf(1))
			}
		}
	}
	return res, nil
}

// queryCount checks that GET /query returns exactly want findings for
// the stream, once the store holds the stream's end (persistence runs
// behind the event stream).
func queryCount(base string, stream uint64, want int) error {
	client := &http.Client{Timeout: streamWait}
	defer client.CloseIdleConnections()
	get := func(series string, limit int) (int, bool, error) {
		resp, err := client.Get(base + "/query?series=" + series + "&stream=" + strconv.FormatUint(stream, 10) +
			"&limit=" + strconv.Itoa(limit))
		if err != nil {
			return 0, false, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, false, fmt.Errorf("/query %s: status %s", series, resp.Status)
		}
		var doc struct {
			Count     int  `json:"count"`
			Truncated bool `json:"truncated"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		return doc.Count, doc.Truncated, err
	}
	deadline := time.Now().Add(streamWait)
	for {
		n, _, err := get(sentinel.SeriesEnds, 1)
		if err != nil {
			return err
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream %d end never reached the store", stream)
		}
		time.Sleep(10 * time.Millisecond)
	}
	n, truncated, err := get(sentinel.SeriesFindings, want+1)
	if err != nil {
		return err
	}
	if n != want || truncated {
		return fmt.Errorf("/query has %d findings for stream %d, live %d", n, stream, want)
	}
	return nil
}
