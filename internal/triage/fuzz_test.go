package triage

import (
	"os"
	"path/filepath"
	"testing"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
)

// FuzzTriageOpen writes arbitrary bytes as findings.json and opens them:
// each input must load or be refused with an error, never panic or hang.
// A store that loads must also take a new finding, save it, and load again
// with the same totals.
func FuzzTriageOpen(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "findings.json")
	s, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := s.Add("c1", "boom", 1,
		finding(5, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, []string{"phantom-rsb"}, 111),
		finding(9, core.FindingTiming, "Meltdown", gen.TrigPageFault, []string{"lsu"}, nil, 222)); err != nil {
		f.Fatal(err)
	}
	store, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(store)
	f.Add([]byte(`{"version":3,"raw_findings":0,"watermarks":{},"bugs":[]}`))
	f.Add([]byte(`{"version":3,"bugs":null,"watermarks":{"c1":-1}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "findings.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return
		}
		s.Bugs()
		if _, _, err := s.Add("fuzz", "xiangshan", 7,
			finding(1<<30, core.FindingEncoded, "Spectre", gen.TrigJumpMispred, []string{"btb"}, nil, 333)); err != nil {
			t.Fatalf("accepted store failed to take a finding: %v", err)
		}
		raw, bugs := s.Stats()
		again, err := Open(path)
		if err != nil {
			t.Fatalf("saved store does not reopen: %v", err)
		}
		if r2, b2 := again.Stats(); r2 != raw || b2 != bugs {
			t.Fatalf("reopened store has %d raw / %d bugs, saved %d / %d", r2, b2, raw, bugs)
		}
	})
}
