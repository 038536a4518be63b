package snoop_test

import (
	"testing"

	"repro/internal/bt"
	"repro/internal/forensics"
	"repro/internal/hci"
	. "repro/internal/snoop"
)

// The §VII-A filters are checked through forensics, which reads every
// plaintext key a btsnoop capture holds; it imports this package, so
// these tests live outside it.

func TestLinkKeyFilterTruncatesOnlyKeyPackets(t *testing.T) {
	key := bt.MustLinkKey("71a70981f30d6af9e20adee8aafe3264")
	addr := bt.MustBDADDR("48:90:51:1e:7f:2c")
	d := NewHCIDump()
	d.Filter = LinkKeyFilter

	reply := hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: addr, Key: key}).Wire()
	notif := hci.EncodeEvent(&hci.LinkKeyNotification{Addr: addr, Key: key, KeyType: bt.KeyTypeUnauthenticatedP256}).Wire()
	other := hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 3}).Wire()

	d.Observe(0, hci.DirHostToController, reply)
	d.Observe(0, hci.DirControllerToHost, notif)
	d.Observe(0, hci.DirHostToController, other)

	recs := d.Records()
	if len(recs[0].Data) != 4 {
		t.Errorf("filtered reply kept %d bytes", len(recs[0].Data))
	}
	if !recs[0].Truncated() {
		t.Error("reply record should report truncation")
	}
	if len(recs[1].Data) != 3 {
		t.Errorf("filtered notification kept %d bytes", len(recs[1].Data))
	}
	if recs[2].Truncated() {
		t.Error("unrelated packet must pass unfiltered")
	}
	if hits := forensics.Analyze(recs).Exposures; len(hits) != 0 {
		t.Fatalf("filter leaked %d keys", len(hits))
	}
}

func TestRandomizeLinkKeyFilterProducesDecoy(t *testing.T) {
	key := bt.MustLinkKey("71a70981f30d6af9e20adee8aafe3264")
	addr := bt.MustBDADDR("48:90:51:1e:7f:2c")
	d := NewHCIDump()
	d.Filter = RandomizeLinkKeyFilter

	d.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: addr, Key: key}).Wire())
	d.Observe(0, hci.DirControllerToHost, hci.EncodeEvent(&hci.LinkKeyNotification{Addr: addr, Key: key}).Wire())
	d.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.AuthenticationRequested{Handle: 3}).Wire())

	hits := forensics.Analyze(d.Records()).Exposures
	if len(hits) != 2 {
		t.Fatalf("the decoy filter must keep key-shaped fields: %d hits", len(hits))
	}
	for _, h := range hits {
		if h.Key == key {
			t.Fatal("the real key leaked through the scrambler")
		}
		if h.Peer != addr {
			t.Fatal("the address must survive (only the key is scrambled)")
		}
	}
	// The packets remain structurally valid (lengths intact).
	for _, rec := range d.Records() {
		if rec.Truncated() {
			t.Fatal("the scrambler must not truncate")
		}
	}
	// Deterministic: the same input scrambles identically.
	d2 := NewHCIDump()
	d2.Filter = RandomizeLinkKeyFilter
	d2.Observe(0, hci.DirHostToController, hci.EncodeCommand(&hci.LinkKeyRequestReply{Addr: addr, Key: key}).Wire())
	if forensics.Analyze(d2.Records()).Exposures[0].Key != hits[0].Key {
		t.Fatal("scrambling must be deterministic")
	}
}
