package core

import (
	"testing"
	"time"

	"repro/internal/bt"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/host"
	"repro/internal/radio"
	"repro/internal/sim"
)

// TestHarvestAllBondsFromOneAccessory models the paper's soft-target
// rationale at scale: an accessory (a shared car kit) is bonded with
// several phones. The attacker runs the extraction attack once per
// impersonated phone against the same accessory and walks away with every
// link key — the car kit's single HCI dump betrays its whole pairing
// list.
func TestHarvestAllBondsFromOneAccessory(t *testing.T) {
	s := sim.NewScheduler(1234)
	med := radio.NewMedium(s, radio.DefaultConfig())

	kit := device.New(s, med, "CarKit", AddrC, device.AndroidAutomotive, device.Options{
		Services:                   []host.ServiceUUID{host.UUIDHandsFree},
		AuthenticateBondedIncoming: true,
	})

	// Three family phones bond with the kit.
	phones := []struct {
		addr bt.BDADDR
		p    device.Platform
	}{
		{bt.MustBDADDR("48:90:00:00:00:01"), device.GalaxyS21Android11},
		{bt.MustBDADDR("48:90:00:00:00:02"), device.Pixel2XLAndroid11},
		{bt.MustBDADDR("48:90:00:00:00:03"), device.Nexus5XAndroid8},
	}
	keys := make(map[bt.BDADDR]bt.LinkKey)
	for _, ph := range phones {
		d := device.New(s, med, "Phone-"+ph.addr.String(), ph.addr, ph.p, device.Options{})
		u := host.NewSimUser(s)
		u.AcceptUnexpected = true
		d.Host.SetUI(u)
		done := false
		d.Host.Pair(kit.Addr(), func(err error) {
			if err != nil {
				t.Fatalf("bonding %s: %v", ph.addr, err)
			}
			done = true
		})
		s.RunFor(30 * time.Second)
		if !done {
			t.Fatalf("bonding %s never completed", ph.addr)
		}
		d.Host.Disconnect(kit.Addr())
		s.RunFor(time.Second)
		keys[ph.addr] = d.Host.Bonds().Get(kit.Addr()).Key
	}
	if kit.Host.Bonds().Len() != 3 {
		t.Fatalf("kit bonds: %d", kit.Host.Bonds().Len())
	}
	kit.Snoop.Reset() // the attacker enables logging only now

	attacker := device.New(s, med, "Attacker", AddrA, device.Nexus5XAndroid6, device.Options{
		ForceSnoop: true,
		Hooks:      host.Hooks{IgnoreLinkKeyRequest: true},
	})

	// One extraction run per impersonated phone, against the same kit.
	for _, ph := range phones {
		rep, err := RunLinkKeyExtraction(s, LinkKeyExtractionConfig{
			Attacker: attacker, Client: kit, Target: ph.addr, Channel: ChannelHCISnoop,
		})
		if err != nil {
			t.Fatalf("extracting %s: %v", ph.addr, err)
		}
		if rep.Key != keys[ph.addr] {
			t.Fatalf("key for %s wrong: %s vs %s", ph.addr, rep.Key, keys[ph.addr])
		}
		if !rep.ClientKeptBond {
			t.Fatalf("kit lost its bond for %s", ph.addr)
		}
	}

	// The kit's single dump now holds every family key.
	hits := forensics.Analyze(kit.Snoop.Records()).Exposures
	distinct := make(map[bt.BDADDR]bt.LinkKey)
	for _, h := range hits {
		distinct[h.Peer] = h.Key
	}
	if len(distinct) != 3 {
		t.Fatalf("dump holds keys for %d phones, want 3", len(distinct))
	}
	for addr, key := range keys {
		if distinct[addr] != key {
			t.Fatalf("dump key for %s mismatched", addr)
		}
	}
}
