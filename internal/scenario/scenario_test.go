package scenario

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forensics"
)

func TestNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range Names() {
		if seen[name] {
			t.Errorf("scenario %q registered twice", name)
		}
		seen[name] = true
		if e, ok := Lookup(name); !ok || e.Name != name {
			t.Errorf("Lookup(%q) = %q, %v", name, e.Name, ok)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup found an unregistered name")
	}
}

// TestEveryEntryRuns runs each entry once at seed 1 on a clean channel.
// An entry with a Rule must succeed and leave that rule's finding in its
// victim's own dump: that is the claim the attack matrix measures and
// btsim's captures are read for.
func TestEveryEntryRuns(t *testing.T) {
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			tb, err := core.NewTestbed(1, e.Options(faults.Plan{}))
			if err != nil {
				t.Fatal(err)
			}
			out, err := e.Run(tb)
			if err != nil {
				t.Fatal(err)
			}
			if out.Line == "" {
				t.Error("no outcome line")
			}
			if e.Rule == "" {
				return
			}
			if !out.OK {
				t.Fatalf("attack failed: %s", out.Line)
			}
			if out.Victim == nil || out.Victim.Snoop == nil {
				t.Fatal("no victim dump to check the rule against")
			}
			data, err := out.Victim.Snoop.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			rep, err := forensics.AnalyzeBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range rep.Findings {
				if f.Kind == e.Rule {
					return
				}
			}
			t.Errorf("victim %s dump raised no %s finding (%d findings)", out.Victim.Name, e.Rule, len(rep.Findings))
		})
	}
}
