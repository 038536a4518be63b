// Forensic triage of HCI dumps: the paper's own evidence method turned
// into a tool. §VI-B2 confirms the page blocking attack by inspecting the
// victim's capture for the Connection_Request-then-Authentication_Requested
// pattern; this example runs three scenarios, writes their btsnoop files,
// and lets the analyzer say which device was attacked and how.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/forensics"
)

func main() {
	fmt.Println("== capture 1: an innocent pairing (victim's dump) ==")
	clean, err := core.NewTestbed(11, core.TestbedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	clean.MUser.ExpectPairing(clean.C.Addr())
	clean.M.Host.Pair(clean.C.Addr(), func(error) {})
	clean.Sched.RunFor(30 * time.Second)
	triage(clean.M.PullSnoopLog())

	fmt.Println("\n== capture 2: a page-blocked pairing (victim's dump) ==")
	blocked, err := core.NewTestbed(12, core.TestbedOptions{})
	if err != nil {
		log.Fatal(err)
	}
	core.RunPageBlocking(blocked.Sched, core.PageBlockingConfig{
		Attacker: blocked.A, Client: blocked.C, Victim: blocked.M, VictimUser: blocked.MUser,
		UsePLOC: true,
	})
	triage(blocked.M.PullSnoopLog())

	fmt.Println("\n== capture 3: a link key extraction (accessory's dump) ==")
	stolen, err := core.NewTestbed(13, core.TestbedOptions{
		ClientPlatform: device.GalaxyS21Android11,
		Bond:           true,
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.RunLinkKeyExtraction(stolen.Sched, core.LinkKeyExtractionConfig{
		Attacker: stolen.A, Client: stolen.C, Target: stolen.M.Addr(), Channel: core.ChannelHCISnoop,
	}); err != nil {
		log.Fatal(err)
	}
	triage(stolen.C.PullSnoopLog())
}

func triage(data []byte, err error) {
	if err != nil {
		log.Fatal(err)
	}
	report, err := forensics.AnalyzeBytes(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(report.Render())
	switch {
	case report.HasFinding(forensics.FindingPageBlocking):
		fmt.Println("verdict: this device was PAGE-BLOCKED — the pairing went to an impostor")
	case report.HasFinding(forensics.FindingStalledAuthTimeout):
		fmt.Println("verdict: a bonded peer stalled authentication — link key likely HARVESTED")
	default:
		fmt.Println("verdict: no attack signature (but note any plaintext key exposures above)")
	}
}
