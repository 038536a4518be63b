package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
)

// campaignGolden is the SHA-256 of the JSON rows of the cross-attack
// matrix and Table II at seed 3 with 4 trials per cell. It was recorded
// with every ECDH computed directly and f1/f2/f3 on crypto/hmac, so it
// holds the SSP fast paths to those outputs; any crypto or simulator
// change that moves a single trial outcome, at any worker count, breaks
// it.
const campaignGolden = "a1f2eee024bd5fd1607b6a0e020fc57493d3a53f5df46109f70e906e70edbc15"

// checkAttackMatrix holds the cross-attack matrix to the claims the
// library reproduces, whatever the golden hash: at least five distinct
// attacks, every cell ran trials, forensics flags every clean-channel
// success of an attack that has a detector rule, and the passkey-guard
// mitigation keeps the attack at zero on a clean channel.
func checkAttackMatrix(rows []AttackRow) error {
	attacks := make(map[string]bool)
	sawGuard := false
	for _, r := range rows {
		attacks[r.Attack] = true
		if r.Trials <= 0 {
			return fmt.Errorf("row (%s, %s) ran no trials", r.Attack, r.Channel)
		}
		if r.Channel != "clean" {
			continue
		}
		if r.DetectorKind != "-" && r.Detected != r.Succeeded {
			return fmt.Errorf("clean %s: %s detected %d of %d successes",
				r.Attack, r.DetectorKind, r.Detected, r.Succeeded)
		}
		if r.Attack == "passkey-guard" {
			sawGuard = true
			if r.Succeeded != 0 {
				return fmt.Errorf("clean passkey-guard: mitigation leaked %d/%d", r.Succeeded, r.Trials)
			}
		}
	}
	if len(attacks) < 5 {
		return fmt.Errorf("matrix covers %d attacks, want >= 5", len(attacks))
	}
	if !sawGuard {
		return fmt.Errorf("matrix lacks the clean passkey-guard row")
	}
	return nil
}

func TestCampaignRowsGolden(t *testing.T) {
	for _, w := range []int{1, 2} {
		attacks, err := RunAttackMatrixWorkers(3, 4, w)
		if err != nil {
			t.Fatalf("workers=%d: attack matrix: %v", w, err)
		}
		if err := checkAttackMatrix(attacks); err != nil {
			t.Errorf("workers=%d: attack matrix acceptance: %v", w, err)
		}
		table2, err := RunTableIIWorkers(3, 4, w)
		if err != nil {
			t.Fatalf("workers=%d: Table II: %v", w, err)
		}
		b, err := json.Marshal(struct {
			Attacks []AttackRow
			TableII []TableIIRow
		}{attacks, table2})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != campaignGolden {
			t.Errorf("workers=%d: rows hash %s, want %s\n%s", w, got, campaignGolden, b)
		}
	}
}
