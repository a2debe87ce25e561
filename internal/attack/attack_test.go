package attack

import (
	"slices"
	"testing"
)

// TestHandcraftedAttacks reproduces the first half of §6.5: "we
// handcrafted eleven attacks performed by a malicious LibFS corrupting
// metadata ... In all the test cases, the integrity verifier can detect
// the corruption, and the kernel controller can restore the corrupted
// file to a consistent state."
func TestHandcraftedAttacks(t *testing.T) {
	scenarios := Handcrafted()
	if len(scenarios) != 11 {
		t.Fatalf("expected 11 handcrafted attacks, have %d", len(scenarios))
	}
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			o := s.Run()
			if o.Err != nil {
				t.Fatalf("scenario error: %v", o.Err)
			}
			if !o.Detected {
				t.Fatal("corruption not detected by the verifier")
			}
			if !o.Recovered {
				t.Fatal("tree not restored to a consistent state")
			}
		})
	}
}

// TestScriptedCorruptions reproduces the second half: automated scripts
// corrupting each verifier-checked field, alone and combined — "in
// total, we cause 134 corruption scenarios".
func TestScriptedCorruptions(t *testing.T) {
	scenarios := Scripted()
	if total := len(scenarios) + 11; total < 134 {
		t.Fatalf("only %d total scenarios; the paper reports 134", total)
	}
	t.Logf("running %d scripted scenarios (%d total with handcrafted)",
		len(scenarios), len(scenarios)+11)
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			o := s.Run()
			if o.Err != nil {
				t.Fatalf("scenario error: %v", o.Err)
			}
			if !o.Detected {
				t.Fatal("corruption not detected")
			}
			if !o.Recovered {
				t.Fatal("not recovered")
			}
		})
	}
}

// requireCaught runs one scenario's outcome through §6.5's bar.
func requireCaught(t *testing.T, o Outcome) {
	t.Helper()
	if o.Err != nil {
		t.Fatalf("scenario error: %v", o.Err)
	}
	if !o.Detected {
		t.Fatal("corruption not detected")
	}
	if !o.Recovered {
		t.Fatal("not recovered")
	}
}

// TestOwnDirentAttacks: a writer of a shared regular file scribbles on
// the file's own name. Detected, rolled back — name included — and the
// other domain maps the file again.
func TestOwnDirentAttacks(t *testing.T) {
	for _, s := range OwnDirent() {
		t.Run(s.Name, func(t *testing.T) { requireCaught(t, s.Run()) })
	}
}

// TestDanglingFreeAttack: a writer frees a data page the file still
// names — a change no dirty bit reports. Detected on cached facts as from
// cold, and pinned on the freer.
func TestDanglingFreeAttack(t *testing.T) {
	for _, s := range DanglingFree() {
		t.Run(s.Name, func(t *testing.T) { requireCaught(t, s.Run()) })
	}
}

// TestScenariosFromColdController replays every scenario against a
// freshly mounted controller — no cached facts, every verification a
// full walk — where the tests above run them after a scoped-clean
// handover of the victim file (Scenario.Run): the verdicts must not
// depend on which.
func TestScenariosFromColdController(t *testing.T) {
	for _, s := range slices.Concat(All(), OwnDirent(), DanglingFree()) {
		t.Run(s.Name, func(t *testing.T) { requireCaught(t, s.RunCold()) })
	}
}
