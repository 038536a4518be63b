// Quickstart: build a two-device piconet, pair the devices with Secure
// Simple Pairing, inspect the resulting bond, and look at the HCI dump —
// the plaintext link key is sitting right in it.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/bt"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/host"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/snoop"
)

func main() {
	// Everything runs on deterministic virtual time.
	sched := sim.NewScheduler(42)
	medium := radio.NewMedium(sched, radio.DefaultConfig())

	// A phone (DisplayYesNo, Android 11 / Bluetooth 5.1) and a hands-free
	// car kit (NoInputNoOutput).
	phone := device.New(sched, medium, "MyPhone",
		bt.MustBDADDR("48:90:51:1e:7f:2c"), device.LGVELVETAndroid11, device.Options{})
	kit := device.New(sched, medium, "CarKit",
		bt.MustBDADDR("00:1a:7d:da:71:0a"), device.HandsFreeKit, device.Options{
			Services: []host.ServiceUUID{host.UUIDHandsFree},
		})

	// A simulated user holds the phone; they intend to pair with the kit,
	// so they will accept the consent dialog when it appears.
	user := host.NewSimUser(sched)
	phone.Host.SetUI(user)
	user.ExpectPairing(kit.Addr())

	// Discover, then pair.
	phone.Host.StartInquiry(2, func(found []hci.InquiryResponse) {
		for _, r := range found {
			fmt.Printf("discovered %s cod=%s\n", r.Addr, r.COD)
		}
		phone.Host.Pair(kit.Addr(), func(err error) {
			if err != nil {
				log.Fatalf("pairing failed: %v", err)
			}
		})
	})
	sched.RunFor(30 * time.Second)

	bond := phone.Host.Bonds().Get(kit.Addr())
	if bond == nil {
		log.Fatal("no bond stored")
	}
	fmt.Println("== bonded ==")
	fmt.Printf("link key: %s (%s)\n", bond.Key, bond.KeyType)
	fmt.Println("\n== phone's bt_config.conf ==")
	fmt.Print(phone.Host.Bonds().EncodeConfig())

	fmt.Println("== user dialogs ==")
	for _, p := range user.Prompts() {
		fmt.Printf("t=%v %s peer=%s accepted=%v\n", p.At.Round(time.Millisecond), p.Kind, p.Peer, p.Accepted)
	}

	// The phone's HCI snoop log captured the whole exchange — including
	// the link key in HCI_Link_Key_Notification, in plaintext.
	fmt.Println("\n== HCI dump (phone) ==")
	rows := snoop.Summarize(phone.Snoop.Records())
	fmt.Print(snoop.RenderTable(rows))
	fmt.Println("\n== plaintext keys in the dump ==")
	for _, e := range forensics.Analyze(phone.Snoop.Records()).Exposures {
		fmt.Printf("frame %d via %s: %s\n", e.Frame, e.Source, e.Key)
	}
}
