package device_test

import (
	"errors"
	"testing"

	"repro/internal/bt"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/host"
	"repro/internal/radio"
	"repro/internal/sim"
)

// newWorld builds a scheduler and medium with a fixed seed.
func newWorld(seed int64) (*sim.Scheduler, *radio.Medium) {
	s := sim.NewScheduler(seed)
	return s, radio.NewMedium(s, radio.DefaultConfig())
}

var (
	addrM = bt.MustBDADDR("48:90:11:22:33:44")
	addrC = bt.MustBDADDR("00:1a:7d:da:71:0a")
	addrA = bt.MustBDADDR("aa:bb:cc:dd:ee:ff")
)

func TestPairBondAndReconnect(t *testing.T) {
	s, med := newWorld(1)
	m := device.New(s, med, "VELVET", addrM, device.LGVELVETAndroid11, device.Options{})
	c := device.New(s, med, "CarKit", addrC, device.HandsFreeKit, device.Options{
		Services: []host.ServiceUUID{host.UUIDHandsFree, host.UUIDNAP},
	})

	user := host.NewSimUser(s)
	m.Host.SetUI(user)
	user.ExpectPairing(addrC)

	var pairErr error
	done := false
	m.Host.Pair(addrC, func(err error) { pairErr = err; done = true })
	s.Run(0)

	if !done {
		t.Fatal("pairing never completed")
	}
	if pairErr != nil {
		t.Fatalf("pairing failed: %v", pairErr)
	}

	bm := m.Host.Bonds().Get(addrC)
	bc := c.Host.Bonds().Get(addrM)
	if bm == nil || bc == nil {
		t.Fatalf("bond missing: m=%v c=%v", bm, bc)
	}
	if bm.Key != bc.Key {
		t.Fatalf("link keys disagree: %s vs %s", bm.Key, bc.Key)
	}
	if bm.Key.IsZero() {
		t.Fatal("derived link key is zero")
	}
	if bm.KeyType != bt.KeyTypeUnauthenticatedP256 {
		t.Fatalf("Just Works should yield an unauthenticated key, got %s", bm.KeyType)
	}

	// The v5.1 DisplayYesNo initiator must have seen exactly one bare
	// consent dialog (paper Fig. 7b).
	prompts := user.Prompts()
	if len(prompts) != 1 {
		t.Fatalf("want 1 user prompt, got %d", len(prompts))
	}
	if prompts[0].Kind != host.KindJustWorksConsent {
		t.Fatalf("want just-works consent dialog, got %v", prompts[0].Kind)
	}

	// Reconnect: LMP authentication with the stored key must succeed
	// without any new pairing (no further prompts).
	m.Host.Disconnect(addrC)
	s.Run(0)
	if m.Host.Connection(addrC) != nil {
		t.Fatal("connection should be gone after disconnect")
	}

	var authErr error
	authDone := false
	m.Host.Pair(addrC, func(err error) { authErr = err; authDone = true })
	s.Run(0)
	if !authDone || authErr != nil {
		t.Fatalf("bonded reconnect failed: done=%v err=%v", authDone, authErr)
	}
	if got := len(user.Prompts()); got != 1 {
		t.Fatalf("bonded reconnect must not re-prompt; prompts=%d", got)
	}

	// The phone's HCI snoop log must contain the link key in plaintext —
	// the paper's Fig. 3 observation.
	hits := forensics.Analyze(m.Snoop.Records()).Exposures
	if len(hits) == 0 {
		t.Fatal("no link keys in the HCI dump")
	}
	found := false
	for _, h := range hits {
		if h.Peer == addrC && h.Key == bm.Key {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump does not contain the bonded key %s for %s; hits=%v", bm.Key, addrC, hits)
	}
}

func TestProfileConnectRequiresService(t *testing.T) {
	s, med := newWorld(2)
	m := device.New(s, med, "Phone", addrM, device.Pixel2XLAndroid11, device.Options{
		Services: []host.ServiceUUID{host.UUIDNAP},
	})
	a := device.New(s, med, "Client", addrA, device.Nexus5XAndroid6, device.Options{})
	user := host.NewSimUser(s)
	m.Host.SetUI(user)
	// The phone acts as pairing responder here; it will see a consent
	// dialog only per policy. Accept everything for this functional test.
	user.AcceptUnexpected = true

	var errNAP, errPBAP error
	doneNAP, donePBAP := false, false
	a.Host.ConnectProfile(addrM, host.UUIDNAP, func(err error) { errNAP = err; doneNAP = true })
	s.Run(0)
	a.Host.ConnectProfile(addrM, host.UUIDPBAP, func(err error) { errPBAP = err; donePBAP = true })
	s.Run(0)

	if !doneNAP || errNAP != nil {
		t.Fatalf("NAP profile connect: done=%v err=%v", doneNAP, errNAP)
	}
	if !donePBAP {
		t.Fatal("PBAP profile connect never finished")
	}
	if !errors.Is(errPBAP, host.ErrServiceNotFound) {
		t.Fatalf("PBAP should be unavailable, got %v", errPBAP)
	}
	_ = m
}
