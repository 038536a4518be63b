package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"time"

	"repro/internal/btcrypto"
	"repro/internal/campaign"
	"repro/internal/eval"
	"repro/internal/forensics"
	"repro/internal/sentinel"
	"repro/internal/snoop"
	"repro/internal/tsdb"
)

// Shares of a traced run's measuring budget: the workload rerun that
// prices the tracing, then the ladder, split evenly over its rungs. The
// micro-measurements after the ladder run fixed counts.
const (
	overheadShare = 0.3
	ladderShare   = 0.5
	ladderRungs   = 7
)

// Micro-measurement sizes; quick runs (the tests) take a tenth of each.
const (
	checkpointReps = 30
	queryReps      = 200
	tsdbWindows    = 50
	syncReps       = 20
	e1Batches      = 20
	e1PerBatch     = 5000
	keypairReps    = 50
)

// runTraced reruns the workload with spans, alternating traced and
// untraced passes to price the tracing, then walks the cumulative ladder
// over the workload's capture (the campaign workload uses a sparse
// capture of its seed) and takes the per-layer micro-measurements.
// Every per-layer metric comes from spans or from the daemon's own
// instrumentation, read after the pass.
func (r *run) runTraced(w workload) error {
	var c *capture
	spec := r.sizedCampaign(campaignJob)
	if w.campaign != nil {
		if err := r.campaignOverhead(spec); err != nil {
			return err
		}
		caps, err := r.setupIngest(r.sized(sparseSpec))
		if err != nil {
			return err
		}
		c = caps[0]
	} else {
		spec := r.sized(*w.ingest)
		caps, err := r.setupIngest(spec)
		if err != nil {
			return err
		}
		if err := r.ingestOverhead(spec, caps); err != nil {
			return err
		}
		c = caps[0]
	}
	det, err := r.ladderForensics(c)
	if err != nil {
		return err
	}
	lines, err := r.ladderSentinel(c)
	if err != nil {
		return err
	}
	if err := r.checkpointMicro(det); err != nil {
		return err
	}
	if err := r.tsdbMicro(lines, det); err != nil {
		return err
	}
	r.cryptoMicro()
	r.campaignMicro(spec)
	return nil
}

// overhead records trace.overhead_share from interleaved untraced and
// traced passes of the workload's throughput phase.
func (r *run) overhead(pass func(root spanRef) (float64, error)) error {
	var plain, traced []float64
	err := r.measure(overheadShare,
		&phase{name: "untraced", share: 1, pass: func(i int) error {
			rate, err := pass(spanRef{})
			if i >= 0 {
				plain = append(plain, rate)
			}
			return err
		}},
		&phase{name: "traced", share: 1, pass: func(i int) error {
			root := spanRef{}
			if i >= 0 {
				root = r.tr.start(spanRef{}, "pass", "traced", i)
			}
			rate, err := pass(root)
			root.end()
			if i >= 0 {
				traced = append(traced, rate)
			}
			return err
		}},
	)
	r.set("trace.overhead_share", 1-median(traced)/median(plain))
	return err
}

func (r *run) ingestOverhead(spec ingestSpec, caps []*capture) error {
	var skews []float64
	err := r.overhead(func(root spanRef) (float64, error) {
		res, err := r.streamPass(caps, passPlan{opts: serverOpts{listen: true, store: spec.closedStore}, root: root})
		skews = append(skews, shardSkew(res.snap))
		return res.rate, err
	})
	r.set("sentinel.shard_skew", median(skews))
	return err
}

func (r *run) campaignOverhead(spec campaignSpec) error {
	return r.overhead(func(root spanRef) (float64, error) {
		_, rate, _ := r.job(0, spec, r.nproc, root)
		return rate, nil
	})
}

// shardSkew is the busiest shard's record count over the mean.
func shardSkew(snap sentinel.MetricsSnapshot) float64 {
	var max, sum float64
	for _, sh := range snap.Shards {
		v := float64(sh.Records)
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	return max * float64(len(snap.Shards)) / sum
}

// rung measures one rung of the ladder. Its warm-up pass records no
// spans, so the spans of a rung are exactly its measured passes.
func (r *run) rung(name string, pass func(i int, root spanRef) error) error {
	return r.measure(ladderShare/ladderRungs, &phase{name: "ladder." + name, share: 1, pass: func(i int) error {
		root := spanRef{}
		if i >= 0 {
			root = r.tr.start(spanRef{}, "ladder."+name, name, i)
		}
		defer root.end()
		return pass(i, root)
	}})
}

// perRec is the median over passes of a per-pass span total, per unit.
func perRec(byPass map[int]int64, units float64) float64 {
	var xs []float64
	for _, ns := range byPass {
		xs = append(xs, float64(ns)/units)
	}
	return median(xs)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ladderForensics walks the in-process rungs: the block sweep, the
// sweep with the prefilter, and the prefilter feeding the reducer. It
// returns the reducer at the end of the capture, drained.
func (r *run) ladderForensics(c *capture) (*forensics.Detector, error) {
	recs := float64(c.records)
	var sweepAllocs, prefAllocs, reduceAllocs []float64
	if err := r.rung("sweep", func(i int, root spanRef) error {
		m0 := mallocs()
		sc := snoop.NewBatchScannerBytes(c.data)
		var b snoop.RecordBatch
		for {
			sp := root.child("snoop.sweep")
			ok := sc.ScanBatch(&b)
			sp.end()
			if !ok {
				break
			}
		}
		if i >= 0 {
			sweepAllocs = append(sweepAllocs, float64(mallocs()-m0)/recs)
		}
		return sc.Err()
	}); err != nil {
		return nil, err
	}
	r.set("snoop.sweep_ns_per_rec", perRec(r.tr.selfTimes("sweep", "snoop.sweep"), recs))
	r.set("snoop.allocs_per_rec", median(sweepAllocs))

	kept := 0
	if err := r.rung("prefilter", func(i int, root spanRef) error {
		m0 := mallocs()
		sc := snoop.NewBatchScannerBytes(c.data)
		var b snoop.RecordBatch
		kept = 0
		for {
			sp := root.child("snoop.prefilter")
			ok := sc.ScanBatchKeep(&b, forensics.RelevantRecord)
			sp.end()
			if !ok {
				break
			}
			kept += len(b.Records)
		}
		if i >= 0 {
			prefAllocs = append(prefAllocs, float64(mallocs()-m0)/recs)
		}
		return sc.Err()
	}); err != nil {
		return nil, err
	}
	r.set("snoop.prefilter_ns_per_rec", perRec(r.tr.selfTimes("prefilter", "snoop.prefilter"), recs))
	r.set("snoop.kept_share", float64(kept)/recs)

	var det *forensics.Detector
	if err := r.rung("reduce", func(i int, root spanRef) error {
		m0 := mallocs()
		d := forensics.NewDetector()
		sc := snoop.NewBatchScannerBytes(c.data)
		var b snoop.RecordBatch
		n := 0
		for {
			sp := root.child("snoop.prefilter")
			ok := sc.ScanBatchKeep(&b, forensics.RelevantRecord)
			sp.end()
			if !ok {
				break
			}
			sp = root.child("forensics.reduce")
			d.PushKept(b.Frames, b.Records)
			n += len(d.Drain())
			sp.end()
		}
		if i >= 0 {
			reduceAllocs = append(reduceAllocs, float64(mallocs()-m0)/recs)
		}
		r.op(n == len(c.want), "reducer emitted %d findings, batch reference %d", n, len(c.want))
		det = d
		return sc.Err()
	}); err != nil {
		return nil, err
	}
	reduce := r.tr.selfTimes("reduce", "forensics.reduce")
	r.set("forensics.reduce_ns_per_rec", perRec(reduce, recs))
	r.set("forensics.reduce_ns_per_finding", perRec(reduce, float64(max(len(c.want), 1))))
	r.set("forensics.allocs_per_rec", median(reduceAllocs)-median(prefAllocs))
	return det, nil
}

// ladderSentinel walks the daemon rungs over the capture: in-process
// Server.Ingest, a unix session, a unix session with the store (plus
// the /query round trips), and the open loop with the store. It returns
// the finding lines of the first store pass for the tsdb measurements.
func (r *run) ladderSentinel(c *capture) ([][]byte, error) {
	recs := float64(c.records)
	// The forensics stage a daemon pass contains: prefilter plus reducer.
	stage := map[int]int64{}
	for _, name := range []string{"snoop.prefilter", "forensics.reduce"} {
		for p, ns := range r.tr.selfTimes("reduce", name) {
			stage[p] += ns
		}
	}
	forensicsNS := perRec(stage, recs)

	if err := r.rung("ingest", func(i int, root spanRef) error {
		s, err := r.startServer(serverOpts{})
		if err != nil {
			return err
		}
		sp := root.child("sentinel.ingest")
		sum := s.srv.Ingest("bench", "bench", bytes.NewReader(c.data))
		sp.end()
		<-s.ends
		s.stop()
		r.op(sum.Status == sentinel.StatusClean && sum.Records == c.records && sum.EventsDropped == 0,
			"in-process ingest ended %s with %d records: %v", sum.Status, sum.Records, sum.Err)
		_, err = s.out.findings(map[uint64]*capture{sum.ID: c})
		r.opErr(err, "in-process live vs batch findings")
		return nil
	}); err != nil {
		return nil, err
	}
	ingestNS := perRec(r.tr.selfTimes("ingest", "sentinel.ingest"), recs)
	r.set("sentinel.pipeline_ns_per_rec", ingestNS-forensicsNS)

	if err := r.rung("session", func(i int, root spanRef) error {
		_, err := r.streamPass([]*capture{c}, passPlan{opts: serverOpts{listen: true}, root: root})
		return err
	}); err != nil {
		return nil, err
	}
	sessionNS := perRec(r.tr.totalTimes("session", "sentinel.session"), recs)
	r.set("sentinel.transport_ns_per_rec", sessionNS-ingestNS)

	var lines [][]byte
	var scan, push, drain, emit, ckpts []float64
	var evDrop, pDrop uint64
	// The store rung replays the capture at full speed, which on the dense
	// shape writes faster than a shared disk always keeps up with: the
	// persists the daemon sheds are this rung's persist_dropped metric.
	if err := r.rung("store", func(i int, root spanRef) error {
		plan := passPlan{opts: serverOpts{listen: true, store: true, http: true}, shed: true, root: root}
		if i == 0 {
			plan.before = func(s *server) {
				lines = findingLines(s.out)
				r.queryMicro(s.base)
			}
		}
		res, err := r.streamPass([]*capture{c}, plan)
		evDrop += res.snap.EventsDropped
		pDrop += res.snap.Persist.Dropped
		if i < 0 {
			return err
		}
		st := res.snap.Stages
		scan = append(scan, st["scan"].P50US)
		push = append(push, st["push"].P50US)
		drain = append(drain, st["drain"].P50US)
		emit = append(emit, st["emit"].P50US)
		ckpts = append(ckpts, float64(res.snap.Sessions.Checkpoints))
		if _, ok := r.values["sentinel.shard_skew"]; !ok && i == 0 {
			r.set("sentinel.shard_skew", shardSkew(res.snap))
		}
		return err
	}); err != nil {
		return nil, err
	}
	storeNS := perRec(r.tr.totalTimes("store", "sentinel.session"), recs)
	r.set("sentinel.persist_ns_per_rec", storeNS-sessionNS)
	r.set("sentinel.stage_scan_us_p50", median(scan))
	r.set("sentinel.stage_push_us_p50", median(push))
	r.set("sentinel.stage_drain_us_p50", median(drain))
	r.set("sentinel.stage_emit_us_p50", median(emit))
	r.set("sentinel.checkpoints", median(ckpts))
	r.set("sentinel.events_dropped", float64(evDrop))
	r.set("sentinel.persist_dropped", float64(pDrop))

	var late []float64
	if err := r.rung("open", func(i int, root spanRef) error {
		res, err := r.streamPass([]*capture{c}, passPlan{
			opts: serverOpts{listen: true, store: true, http: true}, open: true, countQuery: i == 0, root: root,
		})
		if i >= 0 {
			late = append(late, res.late...)
		}
		return err
	}); err != nil {
		return nil, err
	}
	r.set("loadgen.late_ms_p99", percentile(late, 0.99))
	return lines, nil
}

// findingLines copies the finding lines out of a sink.
func findingLines(s *sink) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out [][]byte
	for _, l := range bytes.Split(s.buf, []byte{'\n'}) {
		if bytes.HasPrefix(l, findingPrefix) {
			out = append(out, append([]byte(nil), l...))
		}
	}
	return out
}

// queryMicro times /query round trips against a daemon whose store
// holds one pass: the dashboard request of the dense workload, over
// everything stored since a minute ago.
func (r *run) queryMicro(base string) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	since := url.QueryEscape(time.Now().Add(-time.Minute).UTC().Format(time.RFC3339Nano))
	var lat []float64
	fails := 0
	n := r.reps(queryReps)
	for i := 0; i < n; i++ {
		d, ok := getQuery(client, base+"/query?series=findings&limit=1000&since="+since)
		lat = append(lat, d)
		if !ok {
			fails++
		}
	}
	r.ops(n, fails, "%d of %d /query requests failed", fails, n)
	r.set("sentinel.query_p50_ms", percentile(lat, 0.50))
	r.set("sentinel.query_p95_ms", percentile(lat, 0.95))
	r.res.Samples["sentinel.query_ms"] = len(lat)
}

// checkpointMicro times SnapshotLiveState on the reducer at the end of
// the capture, and RestoreState of that checkpoint into a fresh one.
func (r *run) checkpointMicro(det *forensics.Detector) error {
	var snap []byte
	var ck, rs []float64
	for i := 0; i < r.reps(checkpointReps); i++ {
		t0 := time.Now()
		b, err := det.SnapshotLiveState()
		ck = append(ck, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		snap = b
		d := forensics.NewDetector()
		t0 = time.Now()
		err = d.RestoreState(snap)
		rs = append(rs, us(time.Since(t0)))
		r.opErr(err, "restore checkpoint")
	}
	r.set("forensics.checkpoint_bytes", float64(len(snap)))
	r.set("forensics.checkpoint_us", median(ck))
	r.set("forensics.restore_us", median(rs))
	return nil
}

// tsdbMicro appends the captured finding lines to a fresh store at
// timestamps 1 ms apart, queries 1 s windows of them, and times
// SyncSeries on the checkpoint series after each checkpoint append.
func (r *run) tsdbMicro(lines [][]byte, det *forensics.Detector) error {
	st, dir, err := r.openStore()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer st.Close()
	base := time.Now().UnixNano()
	t0 := time.Now()
	for i, l := range lines {
		if err := st.Append(sentinel.SeriesFindings, base+int64(i)*int64(time.Millisecond), 1, l); err != nil {
			return fmt.Errorf("tsdb append: %w", err)
		}
	}
	r.set("tsdb.append_ns_per_frame", float64(time.Since(t0).Nanoseconds())/float64(max(len(lines), 1)))

	rng := rand.New(rand.NewSource(r.opt.seed))
	var q []float64
	for i := 0; i < r.reps(tsdbWindows); i++ {
		since := base + rng.Int63n(int64(max(len(lines), 1)))*int64(time.Millisecond)
		n := 0
		t0 := time.Now()
		err := st.Query(sentinel.SeriesFindings, since, since+int64(time.Second), tsdb.KeyAny, func(tsdb.Frame) error {
			if n++; n >= 1000 {
				return errEnough
			}
			return nil
		})
		q = append(q, us(time.Since(t0)))
		if err != nil && err != errEnough {
			return fmt.Errorf("tsdb query: %w", err)
		}
	}
	r.set("tsdb.query_us", median(q))

	state, err := det.SnapshotLiveState()
	if err != nil {
		return err
	}
	var sync []float64
	for i := 0; i < r.reps(syncReps); i++ {
		if err := st.Append(sentinel.SeriesCkpt, base+int64(i), 1, state); err != nil {
			return fmt.Errorf("tsdb checkpoint append: %w", err)
		}
		t0 := time.Now()
		err := st.SyncSeries(sentinel.SeriesCkpt)
		sync = append(sync, us(time.Since(t0)))
		r.opErr(err, "tsdb SyncSeries")
	}
	r.set("tsdb.sync_series_us", median(sync))
	return nil
}

var errEnough = errors.New("enough frames")

// cryptoSink keeps the measured results alive.
var cryptoSink byte

// cryptoMicro times the campaign's two hottest primitives: E1
// authentication under one cached key schedule, and P-256 key pairs.
func (r *run) cryptoMicro() {
	rng := rand.New(rand.NewSource(r.opt.seed))
	var key, rnd [16]byte
	var addr [6]byte
	rng.Read(key[:])
	rng.Read(addr[:])
	ctx := btcrypto.NewE1Context(key)
	var e1 []float64
	for b := 0; b < r.reps(e1Batches); b++ {
		rng.Read(rnd[:])
		t0 := time.Now()
		for i := 0; i < e1PerBatch; i++ {
			rnd[0] = byte(i)
			sres, _ := ctx.Auth(rnd, addr)
			cryptoSink ^= sres[0]
		}
		e1 = append(e1, float64(time.Since(t0).Nanoseconds())/e1PerBatch)
	}
	r.set("btcrypto.e1_auth_ns", median(e1))

	var kp []float64
	for i := 0; i < r.reps(keypairReps); i++ {
		t0 := time.Now()
		k, err := btcrypto.GenerateKeyPair(rng)
		kp = append(kp, us(time.Since(t0)))
		if r.opErr(err, "GenerateKeyPair") {
			cryptoSink ^= k.PublicX()[0]
		}
	}
	r.set("btcrypto.keypair_us", median(kp))
}

// campaignMicro runs one campaign job on one worker and one on nproc,
// the latter with the progress sink, for the engine's scaling and trial
// latency.
func (r *run) campaignMicro(spec campaignSpec) {
	_, serial, _ := r.job(0, spec, 1, spanRef{})
	prog := &campaign.Progress{}
	eval.SetProgress(prog)
	_, par, _ := r.job(0, spec, r.nproc, spanRef{})
	eval.SetProgress(nil)
	snap := prog.Snapshot()
	r.set("campaign.parallel_efficiency", par/(float64(r.nproc)*serial))
	r.set("campaign.trial_p50_us", snap.Latency.P50US)
	r.set("campaign.trial_p99_us", snap.Latency.P99US)
	r.set("campaign.retries", float64(snap.Retries))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// reps is how many repetitions a micro-measurement of n takes.
func (r *run) reps(n int) int {
	if r.opt.quick {
		return max(n/10, 2)
	}
	return n
}
