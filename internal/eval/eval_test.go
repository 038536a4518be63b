package eval

import (
	"strings"
	"testing"
	"time"

	"repro/internal/hci"
)

func TestTableIAllVulnerable(t *testing.T) {
	rows, err := RunTableIWorkers(1, 0)
	if err != nil {
		t.Fatalf("RunTableIWorkers: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("Table I must have 9 systems, got %d", len(rows))
	}
	su := 0
	for _, r := range rows {
		if !r.Vulnerable {
			t.Errorf("%s / %s should be vulnerable", r.OS, r.HostStack)
		}
		if !r.KeyVerified {
			t.Errorf("%s / %s: extracted key failed validation", r.OS, r.HostStack)
		}
		if r.SUPrivilege {
			su++
		}
	}
	// Only Ubuntu requires superuser privilege in the paper's table.
	if su != 1 {
		t.Errorf("exactly one system should require SU, got %d", su)
	}
	text := RenderTableI(rows)
	if !strings.Contains(text, "CSR harmony") || !strings.Contains(text, "BlueZ") {
		t.Errorf("rendered table missing stacks:\n%s", text)
	}
}

func TestTableIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Table II with meaningful trial counts is exercised by the benchmarks")
	}
	rows, err := RunTableIIWorkers(1, 25, 0)
	if err != nil {
		t.Fatalf("RunTableIIWorkers: %v", err)
	}
	if len(rows) != 7 {
		t.Fatalf("Table II must have 7 devices, got %d", len(rows))
	}
	for _, r := range rows {
		if r.BlockingPct() != 100 {
			t.Errorf("%s: page blocking success %.0f%%, want 100%%", r.Device, r.BlockingPct())
		}
		if r.BaselinePct() < 20 || r.BaselinePct() > 80 {
			t.Errorf("%s: baseline success %.0f%% outside the plausible race band", r.Device, r.BaselinePct())
		}
	}
}

func TestFig2Sequences(t *testing.T) {
	res, err := RunFig2(3)
	if err != nil {
		t.Fatalf("RunFig2: %v", err)
	}
	wantFresh := []string{"HCI_Create_Connection", "HCI_Link_Key_Request_Negative_Reply", "HCI_IO_Capability_Request", "HCI_Link_Key_Notification"}
	for _, w := range wantFresh {
		if !containsStr(res.FreshPairing, w) {
			t.Errorf("fresh pairing misses %s: %v", w, res.FreshPairing)
		}
	}
	// Bonded re-authentication must use the stored key: a positive reply,
	// and no SSP messages.
	if !containsStr(res.BondedReauth, "HCI_Link_Key_Request_Reply") {
		t.Errorf("bonded reauth misses positive key reply: %v", res.BondedReauth)
	}
	if containsStr(res.BondedReauth, "HCI_IO_Capability_Request") {
		t.Errorf("bonded reauth must not run SSP: %v", res.BondedReauth)
	}
}

func TestFig3KeyInDump(t *testing.T) {
	res, err := RunFig3(4)
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if !res.MatchesBond {
		t.Fatalf("dumped key %s does not match the bond", res.Key)
	}
	if !strings.Contains(res.PacketHex, "0b 04 16") {
		t.Errorf("the carrying packet should contain the Link_Key_Request_Reply header, got %s", res.PacketHex)
	}
	if !strings.Contains(res.DumpRender, "HCI_Link_Key_Request_Reply") {
		t.Errorf("rendered dump misses the reply row:\n%s", res.DumpRender)
	}
}

func TestFig7MappingRendering(t *testing.T) {
	res := RunFig7()
	if !strings.Contains(res.V42, "automatic confirmation") {
		t.Errorf("v4.2 table should show automatic confirmation:\n%s", res.V42)
	}
	if !strings.Contains(res.V50, "asked yes/no to pair") {
		t.Errorf("v5.0 table should show the mandated consent dialog:\n%s", res.V50)
	}
	if !strings.Contains(res.V42, "Numeric Comparison") {
		t.Errorf("v4.2 table should include numeric comparison:\n%s", res.V42)
	}
}

func TestFig11USBAndDumpAgree(t *testing.T) {
	res, err := RunFig11(5)
	if err != nil {
		t.Fatalf("RunFig11: %v", err)
	}
	if !res.Match {
		t.Fatalf("USB key %s != snoop key %s", res.USBKey, res.SnoopKey)
	}
}

func TestFig12Traces(t *testing.T) {
	res, err := RunFig12(6)
	if err != nil {
		t.Fatalf("RunFig12: %v", err)
	}
	if !res.Signature {
		t.Fatal("missing page blocking signature")
	}
	if !strings.Contains(res.NormalPairing, "HCI_Create_Connection") {
		t.Errorf("normal trace:\n%s", res.NormalPairing)
	}
	if !strings.Contains(res.PageBlocked, "HCI_Accept_Connection_Request") {
		t.Errorf("blocked trace:\n%s", res.PageBlocked)
	}
}

func TestStallAblation(t *testing.T) {
	rows, err := RunStallAblation(7)
	if err != nil {
		t.Fatalf("RunStallAblation: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 strategies, got %d", len(rows))
	}
	stall, naive := rows[0], rows[1]
	if !stall.KeyLogged || !stall.ClientBondIntact {
		t.Errorf("stall strategy should log the key and keep the bond: %+v", stall)
	}
	if stall.DisconnectReason != hci.StatusLMPResponseTimeout {
		t.Errorf("stall should end in LMP response timeout, got %s", stall.DisconnectReason)
	}
	if naive.ClientBondIntact {
		t.Errorf("negative reply should corrupt the client's bond: %+v", naive)
	}
}

func TestLMPTimeoutAblation(t *testing.T) {
	rows, err := RunLMPTimeoutAblationWorkers(8, []time.Duration{2 * time.Second, 10 * time.Second}, 0)
	if err != nil {
		t.Fatalf("RunLMPTimeoutAblationWorkers: %v", err)
	}
	for _, r := range rows {
		if !r.Found {
			t.Errorf("timeout %v: extraction failed", r.Timeout)
		}
		if r.Elapsed < r.Timeout {
			t.Errorf("timeout %v: attack finished in %v, before the stall window", r.Timeout, r.Elapsed)
		}
	}
	if rows[0].Elapsed >= rows[1].Elapsed {
		t.Errorf("attack time should track the timeout: %v vs %v", rows[0].Elapsed, rows[1].Elapsed)
	}
}

func containsStr(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestMitigationMatrix(t *testing.T) {
	rows, err := RunMitigationMatrixWorkers(9, 0)
	if err != nil {
		t.Fatalf("RunMitigationMatrixWorkers: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if !r.Unmitigated {
			t.Errorf("%s: attack should succeed without %s", r.Attack, r.Mitigation)
		}
		if r.Mitigated {
			t.Errorf("%s: attack should fail with %s", r.Attack, r.Mitigation)
		}
		if !r.DefenceWorked {
			t.Errorf("%s: defence verdict wrong", r.Attack)
		}
	}
	text := RenderMitigationMatrix(rows)
	if !strings.Contains(text, "KNOB") {
		t.Errorf("render:\n%s", text)
	}
}

func TestWilsonInterval(t *testing.T) {
	cases := []struct {
		s, n   int
		inside float64 // value that must lie in the interval
	}{
		{50, 100, 50},
		{100, 100, 100},
		{0, 100, 0},
		{48, 100, 52}, // the paper's iPhone row vs our measurement
	}
	for _, c := range cases {
		lo, hi := WilsonInterval(c.s, c.n)
		if lo > hi || lo < 0 || hi > 100 {
			t.Fatalf("degenerate interval [%f,%f]", lo, hi)
		}
		if c.inside < lo || c.inside > hi {
			t.Errorf("WilsonInterval(%d,%d)=[%.1f,%.1f] should contain %.0f", c.s, c.n, lo, hi, c.inside)
		}
	}
	// 100/100 pins the upper bound at 100 with a lower bound near 96.
	lo, hi := WilsonInterval(100, 100)
	if hi != 100 || lo < 94 || lo > 97 {
		t.Errorf("100/100 interval [%f,%f]", lo, hi)
	}
	// Zero trials: the maximally uninformative interval.
	lo, hi = WilsonInterval(0, 0)
	if lo != 0 || hi != 100 {
		t.Errorf("0/0 interval [%f,%f]", lo, hi)
	}
	if !CompatibleWithPaper(52, 100, 52) {
		t.Error("exact match must be compatible")
	}
	if CompatibleWithPaper(10, 100, 90) {
		t.Error("wildly different values must be incompatible")
	}
}

func TestJitterAblationDegeneratesWithoutSpread(t *testing.T) {
	rows := RunJitterAblationWorkers(11, 8, []time.Duration{0, 30 * time.Millisecond}, 0)
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	zero, spread := rows[0], rows[1]
	// Zero spread: the race is a deterministic tie-break, so the win rate
	// is pinned at 0 or 100 — never in between.
	if zero.Pct() != 0 && zero.Pct() != 100 {
		t.Errorf("degenerate race should be all-or-nothing, got %.0f%%", zero.Pct())
	}
	if spread.AttackerWins == 0 || spread.AttackerWins == spread.Trials {
		t.Errorf("jittered race should be mixed: %d/%d", spread.AttackerWins, spread.Trials)
	}
	if !strings.Contains(RenderJitterAblation(rows), "jitter") {
		t.Error("render")
	}
}

func TestPLOCWindowAblationShape(t *testing.T) {
	rows, err := RunPLOCWindowAblationWorkers(12, []time.Duration{5 * time.Second, 30 * time.Second}, 0)
	if err != nil {
		t.Fatalf("RunPLOCWindowAblationWorkers: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	// [no-ka 5s, no-ka 30s, ka 5s, ka 30s]
	if !rows[0].Success {
		t.Error("pairing inside the supervision window must succeed deterministically")
	}
	// rows[1] (missed window, no keep-alive) degenerates to the page
	// race: either outcome is legitimate, so only the deterministic rows
	// are asserted.
	if !rows[2].Success || !rows[3].Success {
		t.Error("keep-alive must make the window deterministic at any delay")
	}
	if !strings.Contains(RenderPLOCWindow(rows), "keep-alive") {
		t.Error("render")
	}
}

func TestRenderHelpers(t *testing.T) {
	srows, err := RunStallAblation(13)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderStallAblation(srows), "stall") {
		t.Error("stall render")
	}
	trows, err := RunLMPTimeoutAblationWorkers(14, []time.Duration{time.Second}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderLMPTimeout(trows), "timeout") {
		t.Error("timeout render")
	}
	t2, err := RunTableIIWorkers(15, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTableII(t2)
	if !strings.Contains(out, "95% CI") || !strings.Contains(out, "page blocking") {
		t.Errorf("table II render:\n%s", out)
	}
}

func TestForensicsSweepPerfectOnSimulatedWorlds(t *testing.T) {
	res, err := RunForensicsSweepWorkers(20, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PageBlockingDetected != res.Trials {
		t.Errorf("page blocking detection %d/%d", res.PageBlockingDetected, res.Trials)
	}
	if res.ExtractionDetected != res.Trials {
		t.Errorf("extraction detection %d/%d", res.ExtractionDetected, res.Trials)
	}
	if res.CleanFalsePositives != 0 {
		t.Errorf("false positives: %d", res.CleanFalsePositives)
	}
	if !strings.Contains(RenderForensicsSweep(res), "false positives") {
		t.Error("render")
	}
}

func TestEvaluationIsDeterministic(t *testing.T) {
	// The whole evaluation is a pure function of the seed: two runs with
	// the same seed must produce identical tables.
	a, err := RunTableIIWorkers(33, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTableIIWorkers(33, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across identical seeds:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c, err := RunTableIIWorkers(34, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].BaselineSuccess != c[i].BaselineSuccess {
			same = false
		}
	}
	if same {
		t.Error("different seeds should perturb at least one baseline count")
	}
}
