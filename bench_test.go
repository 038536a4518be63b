// Package repro's benchmark harness regenerates every table and figure of
// the paper (go test -bench=.). Custom metrics carry the headline numbers:
// success percentages for Table II, vulnerable-system counts for Table I,
// and so on. Absolute wall-clock numbers measure the simulator, not real
// radios; the paper-facing outputs are the custom metrics.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/btcrypto"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/eval"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/host"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/snoop"
	"repro/internal/usbsniff"
)

// --- Table I ---

// BenchmarkTableI regenerates Table I: all nine systems must come out
// vulnerable and all extracted keys must validate.
func BenchmarkTableI(b *testing.B) {
	var vulnerable, verified int
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTableIWorkers(int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		vulnerable, verified = 0, 0
		for _, r := range rows {
			if r.Vulnerable {
				vulnerable++
			}
			if r.KeyVerified {
				verified++
			}
		}
	}
	b.ReportMetric(float64(vulnerable), "vulnerable_systems")
	b.ReportMetric(float64(verified), "verified_keys")
}

// --- Table II ---

// BenchmarkTableII regenerates Table II with 25 trials per device per
// iteration (100-trial runs live in cmd/benchtables). The custom metrics
// are the aggregate success rates; the paper reports 42-60% and 100%.
func BenchmarkTableII(b *testing.B) {
	var basePct, blockPct float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunTableIIWorkers(int64(i+1), 25, 0)
		if err != nil {
			b.Fatal(err)
		}
		var base, block float64
		for _, r := range rows {
			base += r.BaselinePct()
			block += r.BlockingPct()
		}
		basePct = base / float64(len(rows))
		blockPct = block / float64(len(rows))
	}
	b.ReportMetric(basePct, "baseline_success_pct")
	b.ReportMetric(blockPct, "blocking_success_pct")
}

// BenchmarkBaselineMITMAttempt measures one raced MITM attempt (the
// per-trial cost behind Table II's middle column).
func BenchmarkBaselineMITMAttempt(b *testing.B) {
	wins := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rep := core.RunBaselineMITM(tb.Sched, core.BaselineMITMConfig{
			Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
		})
		if rep.MITMEstablished {
			wins++
		}
	}
	b.ReportMetric(100*float64(wins)/float64(b.N), "success_pct")
}

// BenchmarkPageBlockingAttempt measures one page blocking run; the
// success metric must sit at 100.
func BenchmarkPageBlockingAttempt(b *testing.B) {
	wins := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
			Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser,
			UsePLOC: true,
		})
		if rep.MITMEstablished {
			wins++
		}
	}
	b.ReportMetric(100*float64(wins)/float64(b.N), "success_pct")
}

// --- Figures ---

// BenchmarkFig2 regenerates the pairing/re-authentication procedures.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunFig2(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates the link-key-in-dump observation.
func BenchmarkFig3(b *testing.B) {
	matches := 0
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig3(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.MatchesBond {
			matches++
		}
	}
	b.ReportMetric(100*float64(matches)/float64(b.N), "key_match_pct")
}

// BenchmarkFig7 regenerates the IO capability mapping tables.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := eval.RunFig7()
		if len(res.V42) == 0 || len(res.V50) == 0 {
			b.Fatal("empty mapping tables")
		}
	}
}

// BenchmarkFig11 regenerates the USB-vs-dump key comparison.
func BenchmarkFig11(b *testing.B) {
	matches := 0
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig11(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Match {
			matches++
		}
	}
	b.ReportMetric(100*float64(matches)/float64(b.N), "key_match_pct")
}

// BenchmarkFig12 regenerates the normal-vs-page-blocked trace comparison.
func BenchmarkFig12(b *testing.B) {
	signatures := 0
	for i := 0; i < b.N; i++ {
		res, err := eval.RunFig12(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Signature {
			signatures++
		}
	}
	b.ReportMetric(100*float64(signatures)/float64(b.N), "signature_pct")
}

// --- attack primitives ---

// BenchmarkLinkKeyExtractionSnoop measures the full Fig. 5 attack against
// an Android client.
func BenchmarkLinkKeyExtractionSnoop(b *testing.B) {
	found := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{
			ClientPlatform: device.GalaxyS21Android11, Bond: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
			Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
		})
		if err == nil && rep.Key == tb.BondKey {
			found++
		}
	}
	b.ReportMetric(100*float64(found)/float64(b.N), "success_pct")
}

// BenchmarkLinkKeyExtractionUSB measures the Windows/USB variant.
func BenchmarkLinkKeyExtractionUSB(b *testing.B) {
	found := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{
			ClientPlatform: device.Windows10MSDriver, ClientUSBSniffer: true, Bond: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
			Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelUSBSniff,
		})
		if err == nil && rep.Key == tb.BondKey {
			found++
		}
	}
	b.ReportMetric(100*float64(found)/float64(b.N), "success_pct")
}

// BenchmarkImpersonation measures the stolen-key validation flow.
func BenchmarkImpersonation(b *testing.B) {
	ok := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{Bond: true})
		if err != nil {
			b.Fatal(err)
		}
		imp := core.RunImpersonation(tb.Sched, core.ImpersonationConfig{
			Attacker: tb.A, Victim: tb.M, ClientAddr: tb.C.Addr(), Key: tb.BondKey,
		})
		if imp.Success {
			ok++
		}
	}
	b.ReportMetric(100*float64(ok)/float64(b.N), "success_pct")
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationJitter sweeps the page-response jitter spread.
func BenchmarkAblationJitter(b *testing.B) {
	var degenerate, raced float64
	for i := 0; i < b.N; i++ {
		rows := eval.RunJitterAblationWorkers(int64(i+1), 12, []time.Duration{0, 30 * time.Millisecond}, 0)
		degenerate, raced = rows[0].Pct(), rows[1].Pct()
	}
	b.ReportMetric(degenerate, "zero_jitter_success_pct")
	b.ReportMetric(raced, "jittered_success_pct")
}

// BenchmarkAblationPLOCWindow sweeps the victim pairing delay against the
// supervision timeout, accumulating rates across iterations. Inside the
// window (and with keep-alive) the attack is deterministic; when the held
// link dies before the user pairs, the attack degenerates to the baseline
// page race — ~50%, exactly the regime page blocking was built to escape.
func BenchmarkAblationPLOCWindow(b *testing.B) {
	var inWindow, outWindow, keptAlive float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunPLOCWindowAblationWorkers(int64(i+1), []time.Duration{5 * time.Second, 30 * time.Second}, 0)
		if err != nil {
			b.Fatal(err)
		}
		// rows: [no-ka 5s, no-ka 30s, ka 5s, ka 30s]
		inWindow += pct(rows[0].Success)
		outWindow += pct(rows[1].Success)
		keptAlive += pct(rows[3].Success)
	}
	n := float64(b.N)
	b.ReportMetric(inWindow/n, "inside_window_pct")
	b.ReportMetric(outWindow/n, "missed_window_race_pct")
	b.ReportMetric(keptAlive/n, "keepalive_pct")
}

func pct(ok bool) float64 {
	if ok {
		return 100
	}
	return 0
}

// BenchmarkAblationLMPTimeout sweeps the client's LMP response timeout.
func BenchmarkAblationLMPTimeout(b *testing.B) {
	var ok float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunLMPTimeoutAblationWorkers(int64(i+1), []time.Duration{time.Second, 30 * time.Second}, 0)
		if err != nil {
			b.Fatal(err)
		}
		ok = 0
		for _, r := range rows {
			if r.Found {
				ok += 100 / float64(len(rows))
			}
		}
	}
	b.ReportMetric(ok, "extraction_success_pct")
}

// BenchmarkAblationStall compares the stall against the naive negative
// reply.
func BenchmarkAblationStall(b *testing.B) {
	var stallIntact, naiveIntact float64
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunStallAblation(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		stallIntact, naiveIntact = pct(rows[0].ClientBondIntact), pct(rows[1].ClientBondIntact)
	}
	b.ReportMetric(stallIntact, "stall_bond_intact_pct")
	b.ReportMetric(naiveIntact, "naive_bond_intact_pct")
}

// BenchmarkSnoopFilterOverhead measures the per-packet cost the §VII-A
// mitigation adds to the HCI dump module.
func BenchmarkSnoopFilterOverhead(b *testing.B) {
	wire := hci.EncodeCommand(&hci.LinkKeyRequestReply{
		Addr: bt.MustBDADDR("00:1a:7d:da:71:0a"),
		Key:  bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324"),
	}).Wire()
	b.Run("unfiltered", func(b *testing.B) {
		d := snoop.NewHCIDump()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Observe(0, hci.DirHostToController, wire)
			if d.Len() > 1<<16 {
				d.Reset()
			}
		}
	})
	b.Run("linkkeyfilter", func(b *testing.B) {
		d := snoop.NewHCIDump()
		d.Filter = snoop.LinkKeyFilter
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.Observe(0, hci.DirHostToController, wire)
			if d.Len() > 1<<16 {
				d.Reset()
			}
		}
	})
}

// --- microbenchmarks of the substrates ---

func BenchmarkSAFERPlusAr(b *testing.B) {
	key := [16]byte{1, 2, 3}
	block := [16]byte{4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		block = btcrypto.Ar(key, block)
	}
}

func BenchmarkE1(b *testing.B) {
	key := [16]byte{1}
	challenge := [16]byte{2}
	addr := [6]byte{3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		challenge[0] = byte(i)
		_, _ = btcrypto.E1(key, challenge, addr)
	}
}

func BenchmarkF2LinkKeyDerivation(b *testing.B) {
	w := make([]byte, 32)
	var n1, n2 [16]byte
	var a1, a2 [6]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n1[0] = byte(i)
		_ = btcrypto.F2(w, n1, n2, a1, a2)
	}
}

func BenchmarkHCICommandRoundTrip(b *testing.B) {
	cmd := &hci.LinkKeyRequestReply{
		Addr: bt.MustBDADDR("00:1a:7d:da:71:0a"),
		Key:  bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324"),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pkt := hci.EncodeCommand(cmd)
		if _, err := hci.ParseCommand(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnoopSerialize(b *testing.B) {
	d := snoop.NewHCIDump()
	wire := hci.EncodeEvent(&hci.LinkKeyRequest{Addr: bt.MustBDADDR("00:1a:7d:da:71:0a")}).Wire()
	for i := 0; i < 256; i++ {
		d.Observe(time.Duration(i)*time.Millisecond, hci.DirControllerToHost, wire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUSBExtract(b *testing.B) {
	s := usbsniff.NewSniffer()
	addr := bt.MustBDADDR("00:1a:7d:da:71:0a")
	key := bt.MustLinkKey("c4f16e949f04ee9c0fd6b1330289c324")
	for i := 0; i < 64; i++ {
		s.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.LinkKeyRequest{Addr: addr}).Wire())
	}
	s.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: addr, Key: key}).Wire())
	raw := s.Raw()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if keys := usbsniff.ExtractLinkKeys(raw); len(keys) != 1 {
			b.Fatal("extraction failed")
		}
	}
}

func BenchmarkFullPairing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{Bond: true})
		if err != nil {
			b.Fatal(err)
		}
		if tb.BondKey.IsZero() {
			b.Fatal("no key derived")
		}
	}
}

// --- extension benchmarks ---

// BenchmarkEavesdropDecrypt measures the full eavesdropping pipeline: an
// encrypted session is sniffed, the key extracted, and the past capture
// decrypted.
func BenchmarkEavesdropDecrypt(b *testing.B) {
	recovered := 0
	for i := 0; i < b.N; i++ {
		tb, err := core.NewTestbed(int64(i), core.TestbedOptions{
			ClientPlatform: device.GalaxyS21Android11, Bond: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		sniffer := core.NewAirSniffer(tb.Medium)
		secret := []byte("bench secret payload 0123456789")
		tb.M.Host.Pair(tb.C.Addr(), func(err error) {
			if err != nil {
				return
			}
			conn := tb.M.Host.Connection(tb.C.Addr())
			tb.M.Host.Encrypt(conn, func(err error) {
				if err == nil {
					tb.M.Host.SendData(conn, secret)
				}
			})
		})
		tb.Sched.RunFor(10 * time.Second)
		tb.M.Host.Disconnect(tb.C.Addr())
		tb.Sched.RunFor(time.Second)
		rep, err := core.RunLinkKeyExtraction(tb.Sched, core.LinkKeyExtractionConfig{
			Attacker: tb.A, Client: tb.C, Target: tb.M.Addr(), Channel: core.ChannelHCISnoop,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range sniffer.DecryptWithKey(rep.Key) {
			if rec.WasEncrypted && len(rec.Data) > 6 && string(rec.Data[6:]) == string(secret) {
				recovered++
			}
		}
	}
	b.ReportMetric(100*float64(recovered)/float64(b.N), "recovered_pct")
}

// BenchmarkKNOBBruteForce measures ciphertext-only key recovery as a
// function of the negotiated key size (the KNOB consequence).
func BenchmarkKNOBBruteForce(b *testing.B) {
	for _, size := range []int{1, 2} {
		size := size
		b.Run(fmt.Sprintf("keysize=%d", size), func(b *testing.B) {
			cracked := 0
			var tried int
			for i := 0; i < b.N; i++ {
				w, err := core.NewKNOBWorld(int64(i), size)
				if err != nil {
					b.Fatal(err)
				}
				secret := []byte("knob bench secret")
				w.Testbed.M.Host.Pair(w.Testbed.C.Addr(), func(err error) {
					if err != nil {
						return
					}
					conn := w.Testbed.M.Host.Connection(w.Testbed.C.Addr())
					w.Testbed.M.Host.Encrypt(conn, func(err error) {
						if err == nil {
							w.Testbed.M.Host.SendData(conn, secret)
						}
					})
				})
				w.Testbed.Sched.RunFor(10 * time.Second)
				_, n, ok := w.BruteForce(secret[:4])
				tried = n
				if ok {
					cracked++
				}
			}
			b.ReportMetric(100*float64(cracked)/float64(b.N), "cracked_pct")
			b.ReportMetric(float64(tried), "keys_tried")
		})
	}
}

// BenchmarkPINCrack measures the offline 4-digit PIN brute force against
// a sniffed legacy pairing.
func BenchmarkPINCrack(b *testing.B) {
	// Build one world and capture outside the timed loop; the measured
	// cost is the offline search itself.
	s := sim.NewScheduler(5)
	med := radio.NewMedium(s, radio.DefaultConfig())
	sniffer := core.NewAirSniffer(med)
	mk := func(addr bt.BDADDR) *host.Host {
		tr := hci.NewTransport(s, 100*time.Microsecond)
		controller.New(s, med, tr, controller.Config{Addr: addr, COD: bt.CODHeadset})
		h := host.New(s, tr, host.Config{
			Version: bt.V2_1, IOCap: bt.NoInputNoOutput,
			LegacyPairing: true, PINCode: "8731",
			AcceptIncoming: true, Discoverable: true, Connectable: true,
		}, host.Hooks{})
		h.Start()
		return h
	}
	a := mk(core.AddrM)
	mk(core.AddrC)
	s.Run(0)
	a.Pair(core.AddrC, func(error) {})
	s.RunFor(10 * time.Second)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sniffer.CrackPIN(core.FourDigitPINs)
		if err != nil || res.PIN != "8731" {
			b.Fatalf("crack failed: %v %q", err, res.PIN)
		}
	}
}

// BenchmarkPasskeyPairing measures a full 20-round passkey entry pairing.
func BenchmarkPasskeyPairing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.NewScheduler(int64(i))
		med := radio.NewMedium(s, radio.DefaultConfig())
		board := &host.PasskeyBoard{}
		mk := func(addr bt.BDADDR, cap bt.IOCapability) *host.Host {
			tr := hci.NewTransport(s, 100*time.Microsecond)
			controller.New(s, med, tr, controller.Config{Addr: addr, COD: bt.CODComputer})
			h := host.New(s, tr, host.Config{
				Version: bt.V5_0, IOCap: cap,
				AcceptIncoming: true, Discoverable: true, Connectable: true,
			}, host.Hooks{})
			h.Start()
			u := host.NewSimUser(s)
			u.Board = board
			u.AcceptUnexpected = true
			h.SetUI(u)
			return h
		}
		a := mk(core.AddrM, bt.KeyboardOnly)
		mk(core.AddrC, bt.DisplayYesNo)
		s.Run(0)
		ok := false
		a.Pair(core.AddrC, func(err error) { ok = err == nil })
		s.RunFor(30 * time.Second)
		if !ok {
			b.Fatal("passkey pairing failed")
		}
	}
}

// BenchmarkSAFERPlusContext measures the precomputed-key-schedule cipher
// context against the one-shot Ar above: the round keys are expanded once
// in NewSAFERPlus and reused every call.
func BenchmarkSAFERPlusContext(b *testing.B) {
	c := btcrypto.NewSAFERPlus([16]byte{1, 2, 3})
	block := [16]byte{4, 5, 6}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		block = c.Ar(block)
	}
}

// BenchmarkE1Context measures repeated authentications against one link
// key through the cached E1 context (the controller's hot path).
func BenchmarkE1Context(b *testing.B) {
	c := btcrypto.NewE1Context([16]byte{1})
	challenge := [16]byte{2}
	addr := [6]byte{3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		challenge[0] = byte(i)
		_, _ = c.Auth(challenge, addr)
	}
}

// --- campaign engine: serial vs parallel ---

// BenchmarkCampaignTableII runs the Table II sweep at several worker
// counts. The rows are bit-identical across sub-benchmarks (see
// internal/eval's determinism tests); only the wall clock moves, and only
// on multi-core hardware.
func BenchmarkCampaignTableII(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.RunTableIIWorkers(int64(i+1), 10, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPINCrackParallel measures the sharded early-cancel PIN search
// against the serial scan in BenchmarkPINCrack (same capture, same
// result, same Tried count).
func BenchmarkPINCrackParallel(b *testing.B) {
	s := sim.NewScheduler(5)
	med := radio.NewMedium(s, radio.DefaultConfig())
	sniffer := core.NewAirSniffer(med)
	mk := func(addr bt.BDADDR) *host.Host {
		tr := hci.NewTransport(s, 100*time.Microsecond)
		controller.New(s, med, tr, controller.Config{Addr: addr, COD: bt.CODHeadset})
		h := host.New(s, tr, host.Config{
			Version: bt.V2_1, IOCap: bt.NoInputNoOutput,
			LegacyPairing: true, PINCode: "8731",
			AcceptIncoming: true, Discoverable: true, Connectable: true,
		}, host.Hooks{})
		h.Start()
		return h
	}
	a := mk(core.AddrM)
	mk(core.AddrC)
	s.Run(0)
	a.Pair(core.AddrC, func(error) {})
	s.RunFor(10 * time.Second)

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sniffer.CrackPINParallel(core.FourDigitPINs, workers)
				if err != nil || res.PIN != "8731" {
					b.Fatalf("crack failed: %v %q", err, res.PIN)
				}
			}
		})
	}
}

// BenchmarkE0Keystream measures raw cipher throughput.
func BenchmarkE0Keystream(b *testing.B) {
	st := btcrypto.NewE0([16]byte{1, 2, 3}, [6]byte{4, 5, 6}, 7)
	buf := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.XORKeyStream(buf)
	}
}

// BenchmarkMitigationMatrix runs the full attack-vs-defence matrix.
func BenchmarkMitigationMatrix(b *testing.B) {
	worked := 0
	for i := 0; i < b.N; i++ {
		rows, err := eval.RunMitigationMatrixWorkers(int64(i+1), 0)
		if err != nil {
			b.Fatal(err)
		}
		worked = 0
		for _, r := range rows {
			if r.DefenceWorked {
				worked++
			}
		}
	}
	b.ReportMetric(float64(worked), "defences_effective")
}

// BenchmarkForensicAnalysis measures the capture analyzer over a
// page-blocked victim dump.
func BenchmarkForensicAnalysis(b *testing.B) {
	tb, err := core.NewTestbed(1, core.TestbedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rep := core.RunPageBlocking(tb.Sched, core.PageBlockingConfig{
		Attacker: tb.A, Client: tb.C, Victim: tb.M, VictimUser: tb.MUser, UsePLOC: true,
	})
	if !rep.MITMEstablished {
		b.Fatal("attack failed")
	}
	records := tb.M.Snoop.Records()
	b.ReportAllocs()
	b.ResetTimer()
	detected := 0
	for i := 0; i < b.N; i++ {
		report := forensics.Analyze(records)
		if report.HasFinding(forensics.FindingPageBlocking) {
			detected++
		}
	}
	b.ReportMetric(100*float64(detected)/float64(b.N), "detected_pct")
}
