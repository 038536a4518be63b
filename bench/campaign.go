package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"time"

	"repro/internal/eval"
)

// campaignSpec sizes one campaign job: the cross-attack matrix with
// attackTrials worlds per (attack, channel) cell, then Table II with
// tableTrials baseline and tableTrials page-blocking worlds per device.
type campaignSpec struct {
	attackTrials int
	tableTrials  int
}

// jobRows is what one campaign job produced.
type jobRows struct {
	Attacks []eval.AttackRow
	TableII []eval.TableIIRow
}

func (j jobRows) trials() int {
	n := 0
	for _, a := range j.Attacks {
		n += a.Trials
	}
	for _, t := range j.TableII {
		n += 2 * t.Trials
	}
	return n
}

// jobSeed keeps the jobs of one run, and the runs of distinct seeds, on
// distinct seed streams.
func jobSeed(seed int64, job int) int64 { return seed*1_000_003 + int64(job) }

// runJob runs one campaign job on workers goroutines.
func runJob(seed int64, spec campaignSpec, workers int, sp spanRef) (jobRows, error) {
	var j jobRows
	var err error
	s := sp.child("eval.attack_matrix")
	j.Attacks, err = eval.RunAttackMatrixWorkers(seed, spec.attackTrials, workers)
	s.end()
	if err != nil {
		return j, err
	}
	s = sp.child("eval.table2")
	j.TableII, err = eval.RunTableIIWorkers(seed, spec.tableTrials, workers)
	s.end()
	return j, err
}

// checkRows applies the cross-attack matrix rules (at least five
// attacks, each with trials; every clean-channel attack that has a
// detector rule detected exactly as often as it succeeded; the
// passkey-guard mitigation never beaten on a clean channel) and Table
// II's (seven devices, page blocking always wins).
func checkRows(j jobRows) error {
	attacks := map[string]bool{}
	guard := false
	for _, a := range j.Attacks {
		if a.Trials <= 0 {
			return fmt.Errorf("attack row (%s, %s) ran no trials", a.Attack, a.Channel)
		}
		attacks[a.Attack] = true
		if a.Channel != "clean" {
			continue
		}
		switch {
		case a.Attack == "passkey-guard":
			guard = true
			if a.Succeeded != 0 {
				return fmt.Errorf("passkey-guard beaten %d/%d times on a clean channel", a.Succeeded, a.Trials)
			}
		case a.DetectorKind != "-" && a.Detected != a.Succeeded:
			return fmt.Errorf("clean %s: detected %d of %d successes", a.Attack, a.Detected, a.Succeeded)
		}
	}
	if len(attacks) < 5 || !guard {
		return fmt.Errorf("attack matrix covers %d attacks (guard row %v)", len(attacks), guard)
	}
	if len(j.TableII) != 7 {
		return fmt.Errorf("table II has %d devices, want 7", len(j.TableII))
	}
	for _, t := range j.TableII {
		if t.BlockingSuccess != t.Trials {
			return fmt.Errorf("table II %s: page blocking won %d of %d", t.Device, t.BlockingSuccess, t.Trials)
		}
	}
	return nil
}

// digest fingerprints a job's rows, so two runs of one seed can be
// compared by eye.
func digest(j jobRows) string {
	b, _ := json.Marshal(j) // plain structs of numbers and strings
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func (r *run) sizedCampaign(spec campaignSpec) campaignSpec {
	if r.opt.trials > 0 {
		spec = campaignSpec{attackTrials: r.opt.trials, tableTrials: r.opt.trials}
	}
	return spec
}

// job runs campaign job i, counts its trials as operations, checks its
// rows and returns them with its rate in trials/s and its wall time in
// ms. A job whose trials failed counts as one failed operation at rate 0.
func (r *run) job(i int, spec campaignSpec, workers int, sp spanRef) (jobRows, float64, float64) {
	t0 := time.Now()
	rows, err := runJob(jobSeed(r.opt.seed, i), spec, workers, sp)
	el := time.Since(t0)
	if !r.opErr(err, fmt.Sprintf("campaign job %d", i)) {
		return rows, 0, ms(el)
	}
	r.ops(rows.trials(), 0, "")
	r.opErr(checkRows(rows), fmt.Sprintf("campaign job %d rows", i))
	return rows, float64(rows.trials()) / el.Seconds(), ms(el)
}

// runCampaign measures the simulation campaigns, interleaving jobs on
// nproc workers (three fifths of the time; a job's wall time is the
// campaign's latency) with the same jobs on one worker, whose rows must
// be bit-identical. The set-up is one job, which is all a campaign needs
// before it runs: it fills the lazy tables and grows the heap the
// measured jobs then find ready.
func (r *run) runCampaign(spec campaignSpec) error {
	spec = r.sizedCampaign(spec)
	if _, err := timedSetup(r, func() (jobRows, error) {
		return runJob(jobSeed(r.opt.seed, -1), spec, r.nproc, spanRef{})
	}); err != nil {
		return err
	}
	var par, ser []jobRows
	var parRate, serRate, lat []float64
	parallel := &phase{name: "parallel", share: 0.6, pass: func(i int) error {
		rows, rate, el := r.job(i, spec, r.nproc, spanRef{})
		if i >= 0 {
			par = append(par, rows)
			parRate = append(parRate, rate)
			lat = append(lat, el)
		}
		return nil
	}}
	serial := &phase{name: "serial", share: 0.4, pass: func(i int) error {
		rows, rate, _ := r.job(i, spec, 1, spanRef{})
		if i >= 0 {
			ser = append(ser, rows)
			serRate = append(serRate, rate)
		}
		return nil
	}}
	if err := r.measure(1, parallel, serial); err != nil {
		return err
	}
	stolen := parallel.steal.share()
	r.setHosted("throughput_per_s", steadyRate(parRate), 1, stolen)
	r.setHosted("serial_per_s", steadyRate(serRate), 1, serial.steal.share())
	r.setHosted("latency_p50_ms", percentile(lat, 0.50), -1, stolen)
	r.setHosted("latency_p90_ms", percentile(lat, 0.90), -1, stolen)
	r.res.Samples["latency_ms"] = len(lat)
	for i := 0; i < min(len(par), len(ser)); i++ {
		r.op(reflect.DeepEqual(par[i], ser[i]), "campaign job %d rows differ between 1 and %d workers", i, r.nproc)
	}
	r.res.Digest = digest(par[0])
	return nil
}
