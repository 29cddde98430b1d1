package triage

import (
	"path/filepath"
	"testing"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
)

// finding builds a finding whose seed names the canonical family of its
// window class.
func finding(iter int, kind core.FindingKind, attack string, window gen.TriggerType, comps, bugs []string, seedRand int64) core.Finding {
	fam := scenario.ByTrigger(window).Name
	return core.Finding{
		Kind:       kind,
		AttackType: attack,
		Window:     window,
		Scenario:   fam,
		Components: comps,
		BugLabels:  bugs,
		Seed:       gen.Seed{Scenario: fam, Trigger: window, Rand: seedRand, TriggerOff: 60, WindowLen: 4, EncodeOps: 1},
		Iteration:  iter,
	}
}

// TestSignatureStableAcrossRediscovery: two findings of the same bug from
// different seeds, iterations and component orderings share a signature;
// changing any identity field splits them.
func TestSignatureStableAcrossRediscovery(t *testing.T) {
	a := finding(3, core.FindingEncoded, "Spectre", gen.TrigBranchMispred,
		[]string{"dtlb", "dcache"}, []string{"spectre-refetch-miss"}, 111)
	b := finding(97, core.FindingEncoded, "Spectre", gen.TrigBranchMispred,
		[]string{"dcache", "dtlb", "dcache"}, []string{"spectre-refetch-miss"}, 999)
	if Compute("boom", &a) != Compute("boom", &b) {
		t.Fatalf("rediscovery changed signature:\n %q\n %q", Compute("boom", &a), Compute("boom", &b))
	}
	for name, c := range map[string]core.Finding{
		"kind":       finding(3, core.FindingTiming, "Spectre", gen.TrigBranchMispred, []string{"dcache", "dtlb"}, []string{"spectre-refetch-miss"}, 111),
		"attack":     finding(3, core.FindingEncoded, "Meltdown", gen.TrigBranchMispred, []string{"dcache", "dtlb"}, []string{"spectre-refetch-miss"}, 111),
		"window":     finding(3, core.FindingEncoded, "Spectre", gen.TrigReturnMispred, []string{"dcache", "dtlb"}, []string{"spectre-refetch-miss"}, 111),
		"components": finding(3, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"icache"}, []string{"spectre-refetch-miss"}, 111),
		"bug-labels": finding(3, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache", "dtlb"}, []string{"phantom-rsb"}, 111),
	} {
		if Compute("boom", &c) == Compute("boom", &a) {
			t.Fatalf("changing %s did not change the signature", name)
		}
	}
	if Compute("xiangshan", &a) == Compute("boom", &a) {
		t.Fatal("same finding on different targets must not collapse")
	}
}

// TestStoreDedup: duplicates collapse into one bug with a count, and
// re-adding a finding at or below its campaign's watermark is a no-op.
func TestStoreDedup(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	dup1 := finding(5, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, nil, 1)
	dup2 := finding(9, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, nil, 2)
	other := finding(7, core.FindingTiming, "Meltdown", gen.TrigPageFault, []string{"icache"}, nil, 3)

	if occ, n, err := s.Add("c1", "boom", 1, dup1, other); err != nil || n != 2 || occ != 2 {
		t.Fatalf("first add: occ=%d new=%d err=%v, want 2 occurrences opening 2 clusters", occ, n, err)
	}
	if occ, n, err := s.Add("c2", "boom", 2, dup2); err != nil || n != 0 || occ != 1 {
		t.Fatalf("cross-seed duplicate: occ=%d new=%d err=%v, want 1 occurrence, 0 new clusters", occ, n, err)
	}
	// Replay c1's finding (unclean-restart scenario): nothing may move.
	if occ, n, err := s.Add("c1", "boom", 1, dup1); err != nil || occ != 0 || n != 0 {
		t.Fatalf("replay moved the store: occ=%d new=%d err=%v", occ, n, err)
	}

	raw, nbugs := s.Stats()
	if raw != 3 || nbugs != 2 {
		t.Fatalf("raw=%d bugs=%d, want raw=3 bugs=2 (replay must not count)", raw, nbugs)
	}
	bugs := s.Bugs()
	if len(bugs) != 2 {
		t.Fatalf("Bugs() returned %d", len(bugs))
	}
	top := bugs[0] // most-seen first
	if top.Count != 2 {
		t.Fatalf("duplicate cluster count=%d, want 2 (replay must be idempotent)", top.Count)
	}
	if len(top.Campaigns) != 2 || top.Campaigns[0] != "c1" || top.Campaigns[1] != "c2" {
		t.Fatalf("campaigns=%v, want [c1 c2]", top.Campaigns)
	}
	if len(top.Seeds) != 2 || top.Seeds[0] != 1 || top.Seeds[1] != 2 {
		t.Fatalf("seeds=%v, want [1 2]", top.Seeds)
	}
	if top.Example.Iteration != 5 {
		t.Fatalf("example should be the first sighting (iter 5), got %d", top.Example.Iteration)
	}
}

// TestStorePersistence: a store reloaded from disk carries clusters,
// counts and watermarks across the restart.
func TestStorePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f := finding(5, core.FindingEncoded, "Spectre", gen.TrigBranchMispred, []string{"dcache"}, []string{"b1"}, 1)
	if _, _, err := s.Add("c1", "boom", 7, f); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	raw, nbugs := s2.Stats()
	if raw != 1 || nbugs != 1 {
		t.Fatalf("after reload raw=%d bugs=%d", raw, nbugs)
	}
	// The reloaded store must still dedup the replayed occurrence...
	if occ, _, err := s2.Add("c1", "boom", 7, f); err != nil || occ != 0 {
		t.Fatal(err)
	}
	// ...and absorb a genuinely new one.
	f2 := f
	f2.Iteration = 42
	if _, _, err := s2.Add("c2", "boom", 8, f2); err != nil {
		t.Fatal(err)
	}
	bugs := s2.Bugs()
	if len(bugs) != 1 || bugs[0].Count != 2 {
		t.Fatalf("after reload+replay: %d bugs, count=%d; want 1 bug count=2", len(bugs), bugs[0].Count)
	}
	if bugs[0].Target != "boom" || bugs[0].Kind != core.FindingEncoded.String() {
		t.Fatalf("cluster metadata lost across reload: %+v", bugs[0])
	}
}
