package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/bt"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/snoop"
	"repro/internal/usbsniff"
)

// FiguresResult bundles every figure reproduction of one evaluation run.
type FiguresResult struct {
	Fig2  Fig2Result
	Fig3  Fig3Result
	Fig7  Fig7Result
	Fig11 Fig11Result
	Fig12 Fig12Result
}

// RunAllFigures regenerates the five figure reproductions as one
// campaign: each figure builds its own worlds from the shared seed, so
// they are independent trials and their results match the sequential
// RunFigN calls exactly. workers <= 0 selects GOMAXPROCS.
func RunAllFigures(seed int64, workers int) (FiguresResult, error) {
	var out FiguresResult
	_, err := campaign.Run(context.Background(), 5, sweepCfg(workers),
		func(_ context.Context, i int) (struct{}, error) {
			var err error
			switch i {
			case 0:
				out.Fig2, err = RunFig2(seed)
			case 1:
				out.Fig3, err = RunFig3(seed)
			case 2:
				out.Fig7 = RunFig7()
			case 3:
				out.Fig11, err = RunFig11(seed)
			case 4:
				out.Fig12, err = RunFig12(seed)
			}
			return struct{}{}, err
		})
	return out, err
}

// Fig2Result carries the message sequences of Fig. 2: the HCI-visible
// flows for a first pairing (SSP) and for a bonded reconnection (LMP
// authentication only).
type Fig2Result struct {
	FreshPairing []string
	BondedReauth []string
}

// RunFig2 reproduces Fig. 2 by pairing two devices, reconnecting them,
// and summarizing the victim's HCI trace for each phase.
func RunFig2(seed int64) (Fig2Result, error) {
	var out Fig2Result
	tb, err := core.NewTestbed(seed, core.TestbedOptions{})
	if err != nil {
		return out, err
	}
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	out.FreshPairing = snoop.CommandEventNames(snoop.Summarize(tb.M.Snoop.Records()))

	tb.M.Host.Disconnect(tb.C.Addr())
	tb.Sched.RunFor(time.Second)
	tb.M.Snoop.Reset()

	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)
	out.BondedReauth = snoop.CommandEventNames(snoop.Summarize(tb.M.Snoop.Records()))
	return out, nil
}

// Fig3Result is the paper's Fig. 3: a bonded link key sitting in an HCI
// dump, with the hcidump rendering and the raw packet bytes.
type Fig3Result struct {
	Key         bt.LinkKey
	Hit         forensics.KeyExposure
	PacketHex   string // raw H4 bytes of the carrying packet
	DumpRender  string // hcidump-style trace table
	MatchesBond bool
}

// RunFig3 bonds a phone with an accessory, reconnects, and locates the
// link key inside the phone's snoop log.
func RunFig3(seed int64) (Fig3Result, error) {
	var out Fig3Result
	tb, err := core.NewTestbed(seed, core.TestbedOptions{Bond: true})
	if err != nil {
		return out, err
	}
	// Reconnect so HCI_Link_Key_Request / _Reply appear in the fresh log.
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)

	records := tb.M.Snoop.Records()
	for _, e := range forensics.Analyze(records).Exposures {
		if e.Peer == tb.C.Addr() {
			out.Hit = e
			out.Key = e.Key
		}
	}
	if out.Key.IsZero() {
		return out, fmt.Errorf("eval: no link key in the reconnect dump")
	}
	out.MatchesBond = out.Key == tb.BondKey
	if out.Hit.Frame >= 1 && out.Hit.Frame <= len(records) {
		out.PacketHex = usbsniff.BinaryToHex(records[out.Hit.Frame-1].Data)
	}
	out.DumpRender = snoop.RenderTable(snoop.Summarize(records))
	return out, nil
}

// Fig7Result renders the IO-capability mapping tables for a pre-5.0 and a
// post-5.0 stack.
type Fig7Result struct {
	V42 string
	V50 string
}

// RunFig7 regenerates the paper's Fig. 7 from the mapping implementation.
func RunFig7() Fig7Result {
	caps := []bt.IOCapability{bt.DisplayYesNo, bt.NoInputNoOutput}
	render := func(v bt.Version) string {
		var b strings.Builder
		fmt.Fprintf(&b, "IO capability mapping, version %s (initiator = device A)\n", v)
		for _, resp := range caps {
			for _, init := range caps {
				m := bt.Stage1MappingFor(init, resp, v)
				desc := m.Model.String()
				var notes []string
				if m.ConfirmInitiator {
					notes = append(notes, "A confirms value")
				}
				if m.ConfirmResponder {
					notes = append(notes, "B confirms value")
				}
				if m.PairPopupInitiator {
					notes = append(notes, "A asked yes/no to pair (no value)")
				}
				if m.PairPopupResponder {
					notes = append(notes, "B asked yes/no to pair (no value)")
				}
				if len(notes) == 0 {
					notes = append(notes, "automatic confirmation")
				}
				fmt.Fprintf(&b, "  A=%-16s B=%-16s -> %-18s (%s)\n", init, resp, desc, strings.Join(notes, ", "))
			}
		}
		return b.String()
	}
	return Fig7Result{V42: render(bt.V4_2), V50: render(bt.V5_0)}
}

// Fig11Result compares the link key recovered from C's sniffed USB
// transport with the one in M's HCI dump (they must be the same key).
type Fig11Result struct {
	USBKey    bt.LinkKey
	SnoopKey  bt.LinkKey
	Match     bool
	USBOffset int
}

// RunFig11 reproduces the paper's Fig. 11 validation.
func RunFig11(seed int64) (Fig11Result, error) {
	var out Fig11Result
	tb, err := core.NewTestbed(seed, core.TestbedOptions{
		ClientPlatform:   device.Windows10MSDriver,
		ClientUSBSniffer: true,
		Bond:             true,
	})
	if err != nil {
		return out, err
	}
	// Reconnect so both captures record the key flow.
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(error) {})
	tb.Sched.RunFor(30 * time.Second)

	keys := usbsniff.ExtractLinkKeys(tb.C.USB.Raw())
	for _, k := range keys {
		if k.Peer == tb.M.Addr() {
			out.USBKey = k.Key
			out.USBOffset = k.HexOffset
		}
	}
	for _, e := range forensics.Analyze(tb.M.Snoop.Records()).Exposures {
		if e.Peer == tb.C.Addr() {
			out.SnoopKey = e.Key
		}
	}
	if out.USBKey.IsZero() || out.SnoopKey.IsZero() {
		return out, fmt.Errorf("eval: missing key (usb=%v snoop=%v)", out.USBKey, out.SnoopKey)
	}
	out.Match = out.USBKey == out.SnoopKey
	return out, nil
}

// Fig12Result carries the two rendered HCI traces of Fig. 12.
type Fig12Result struct {
	NormalPairing string
	PageBlocked   string
	// Signature confirms the discriminator: the page-blocked victim sees
	// HCI_Connection_Request yet issues HCI_Authentication_Requested.
	Signature bool
}

// RunFig12 regenerates the paper's Fig. 12 trace comparison.
func RunFig12(seed int64) (Fig12Result, error) {
	var out Fig12Result

	normal, err := core.NewTestbed(seed, core.TestbedOptions{})
	if err != nil {
		return out, err
	}
	normal.MUser.ExpectPairing(normal.C.Addr())
	normal.M.Host.Pair(normal.C.Addr(), func(error) {})
	normal.Sched.RunFor(30 * time.Second)
	out.NormalPairing = snoop.RenderTable(snoop.Summarize(normal.M.Snoop.Records()))

	blocked, err := core.NewTestbed(seed+1, core.TestbedOptions{})
	if err != nil {
		return out, err
	}
	rep := core.RunPageBlocking(blocked.Sched, core.PageBlockingConfig{
		Attacker: blocked.A, Client: blocked.C, Victim: blocked.M, VictimUser: blocked.MUser,
		UsePLOC: true,
	})
	out.PageBlocked = snoop.RenderTable(snoop.Summarize(blocked.M.Snoop.Records()))
	out.Signature = rep.VictimWasConnectionResponder && rep.VictimWasPairingInitiator
	return out, nil
}
