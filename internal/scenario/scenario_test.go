package scenario_test

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/scenario"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// The test lives in scenario_test (external) so it can drive the family
// table through internal/gen's builder exactly as campaigns do.

var update = flag.Bool("update", false, "rewrite testdata/catalog.golden")

func TestRegistryOrderIndependence(t *testing.T) {
	names := scenario.Names()
	// Strictly increasing: sorted, and no name twice (Lookup's index would
	// keep only one row of a repeated name).
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not strictly increasing at %d: %v", i, names)
		}
	}
	if len(names) < 11 {
		t.Fatalf("expected at least 11 families (8 canonical + 3 extended), got %d: %v", len(names), names)
	}
	// All() must enumerate in exactly the same (sorted) order, and repeated
	// enumerations must agree — the table exposes no row order.
	var fromAll []string
	for _, s := range scenario.All() {
		fromAll = append(fromAll, s.Name)
	}
	if !reflect.DeepEqual(names, fromAll) {
		t.Fatalf("All() order %v != Names() order %v", fromAll, names)
	}
	if again := scenario.Names(); !reflect.DeepEqual(names, again) {
		t.Fatalf("Names() unstable across calls: %v vs %v", names, again)
	}
}

// TestFamilySquashes lists the squash each family's transient window must
// end in for the trigger criterion to hold.
func TestFamilySquashes(t *testing.T) {
	want := map[string]uarch.SquashReason{
		"access-fault":           uarch.SquashException,
		"branch-mispredict":      uarch.SquashBranchMispredict,
		"cache-occupancy":        uarch.SquashException,
		"illegal-inst":           uarch.SquashException,
		"jump-mispredict":        uarch.SquashJumpMispredict,
		"mem-disambig":           uarch.SquashMemOrdering,
		"misalign":               uarch.SquashException,
		"nested-fault-in-branch": uarch.SquashBranchMispredict,
		"page-fault":             uarch.SquashException,
		"return-mispredict":      uarch.SquashReturnMispredict,
		"stl-forward-chain":      uarch.SquashMemOrdering,
	}
	all := scenario.All()
	if len(all) != len(want) {
		t.Errorf("%d families, want %d", len(all), len(want))
	}
	for _, fam := range all {
		if got, ok := want[fam.Name]; !ok {
			t.Errorf("family %q is not listed", fam.Name)
		} else if sq := fam.Trigger.Squash(); sq != got {
			t.Errorf("family %q ends in %v, want %v", fam.Name, sq, got)
		}
	}
}

// TestCatalogGolden pins the catalog byte for byte: the markdown table
// `dejavuzz -list-scenarios` prints, then json.Marshal(Catalog()), the list
// the server's GET /scenarios body carries. Regenerate with
// `go test ./internal/scenario -run TestCatalogGolden -update` only after an
// intentional catalog change.
func TestCatalogGolden(t *testing.T) {
	body, err := json.Marshal(scenario.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	got := scenario.CatalogTable() + string(body) + "\n"
	path := filepath.Join("testdata", "catalog.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("catalog drifted from %s (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestCanonicalCoversAllTriggers(t *testing.T) {
	seen := map[string]bool{}
	for _, tr := range scenario.AllTriggerTypes() {
		fam := scenario.ByTrigger(tr)
		if fam.Trigger != tr {
			t.Errorf("canonical family %q for %v has class %v", fam.Name, tr, fam.Trigger)
		}
		if seen[fam.Name] {
			t.Errorf("family %q canonical for two triggers", fam.Name)
		}
		seen[fam.Name] = true
	}
}

// TestEveryFamilyBuildsQuick is the testing/quick property: for every family
// and random generator entropy, the full stimulus construction pipeline
// (phase-1 build, window completion, sanitisation) assembles without error
// for both core configurations, the images fit the swappable region, and
// the window sits behind the trigger.
func TestEveryFamilyBuildsQuick(t *testing.T) {
	for _, fam := range scenario.All() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			prop := func(entropy int64, variantBit bool) bool {
				g := gen.New(entropy)
				for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
					seed, err := g.SeedScenario(kind, fam.Name)
					if err != nil {
						t.Logf("%v/%s: seed: %v", kind, fam.Name, err)
						return false
					}
					if variantBit {
						seed.Variant = gen.VariantRandom
					}
					st, err := g.BuildStimulus(seed)
					if err != nil {
						t.Logf("%v/%s: build: %v", kind, fam.Name, err)
						return false
					}
					if st.Transient == nil || st.Transient.Image.Size() > swapmem.SwapSize {
						t.Logf("%v/%s: transient image missing or oversized", kind, fam.Name)
						return false
					}
					if st.WindowLo <= st.TriggerPC || st.WindowHi <= st.WindowLo {
						t.Logf("%v/%s: window [%#x,%#x) vs trigger %#x",
							kind, fam.Name, st.WindowLo, st.WindowHi, st.TriggerPC)
						return false
					}
					cst, err := g.CompleteWindow(st)
					if err != nil {
						t.Logf("%v/%s: complete: %v", kind, fam.Name, err)
						return false
					}
					if !cst.Completed || len(cst.EncodeBlock) == 0 {
						t.Logf("%v/%s: window not completed", kind, fam.Name)
						return false
					}
					if cst.Transient.Image.Size() > swapmem.SwapSize {
						t.Logf("%v/%s: completed image oversized", kind, fam.Name)
						return false
					}
					if _, err := g.Sanitized(cst); err != nil {
						t.Logf("%v/%s: sanitise: %v", kind, fam.Name, err)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSchedulerPickDistributionFollowsYield(t *testing.T) {
	// A family that keeps yielding must end up over-sampled relative to dry
	// ones, and no family may hit zero.
	for _, sp := range policySpellings {
		policy := sp.policy
		t.Run(sp.name, func(t *testing.T) {
			fams := []string{"a", "b", "c"}
			sch, err := scenario.NewScheduler(fams, policy)
			if err != nil {
				t.Fatal(err)
			}
			// Feed several barriers where only "b" yields.
			for i := 0; i < 6; i++ {
				sch.Update(map[string]scenario.Yield{
					"a": {Picks: 10},
					"b": {Picks: 10, Points: 40, Findings: 1},
					"c": {Picks: 10},
				})
			}
			wb, _, _ := sch.Probe("b")
			wa, _, _ := sch.Probe("a")
			if wb <= wa {
				t.Fatalf("yielding family not upweighted: b=%v a=%v", wb, wa)
			}
			rng := rand.New(rand.NewSource(1))
			counts := map[string]int{}
			for i := 0; i < 4000; i++ {
				counts[sch.Pick(rng)]++
			}
			if counts["b"] <= counts["a"] || counts["b"] <= counts["c"] {
				t.Fatalf("pick distribution ignores weights: %v", counts)
			}
			// The exploration bonus keeps the dry families alive.
			if counts["a"] == 0 || counts["c"] == 0 {
				t.Fatalf("exploration starved a family: %v", counts)
			}
		})
	}
}

// TestSchedulerUpdatesCompose pins what checkpoint resume relies on: from
// the same frontier prior, one Update per epoch and one Update of the
// epochs' summed yield leave the same scheduler. Family x's prior of 40
// picks is above the scheduler's 16-pick prior cap, so the capped seeding
// is part of the check.
func TestSchedulerUpdatesCompose(t *testing.T) {
	for _, sp := range policySpellings {
		policy := sp.policy
		t.Run(sp.name, func(t *testing.T) {
			fams := []string{"w", "x", "y", "z"}
			prior := []scenario.Prior{{Name: "x", Picks: 40, Points: 130, Findings: 3}, {Name: "y", Picks: 5, Points: 2}}
			epochs := []map[string]scenario.Yield{
				{"w": {Picks: 3, Points: 7}, "x": {Picks: 5, Points: 1, Findings: 1}},
				{"x": {Picks: 8, Points: 20}, "z": {Picks: 2, Points: 30}},
				{"w": {Picks: 1}, "y": {Picks: 4, Points: 9, Findings: 2}},
			}
			stepwise, err := scenario.NewSchedulerWithPrior(fams, policy, prior)
			if err != nil {
				t.Fatal(err)
			}
			summed, err := scenario.NewSchedulerWithPrior(fams, policy, prior)
			if err != nil {
				t.Fatal(err)
			}
			total := map[string]scenario.Yield{}
			for _, e := range epochs {
				stepwise.Update(e)
				for _, name := range fams {
					y, sum := e[name], total[name]
					sum.Picks += y.Picks
					sum.Points += y.Points
					sum.Findings += y.Findings
					total[name] = sum
				}
			}
			summed.Update(total)
			for _, name := range fams {
				w1, m1, b1 := stepwise.Probe(name)
				w2, m2, b2 := summed.Probe(name)
				if w1 != w2 || m1 != m2 || b1 != b2 {
					t.Errorf("family %q: per-epoch Updates probe (%v, %v, %v), one summed Update (%v, %v, %v)", name, w1, m1, b1, w2, m2, b2)
				}
			}
			a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			seen := map[string]bool{}
			for i := 0; i < 200; i++ {
				p, q := stepwise.Pick(a), summed.Pick(b)
				if p != q {
					t.Fatalf("pick %d diverged: %q vs %q", i, p, q)
				}
				seen[p] = true
			}
			if len(seen) < 2 {
				t.Fatalf("200 picks drew only %v; the stream comparison is vacuous", seen)
			}
		})
	}
}

func TestCatalogTableListsEveryFamily(t *testing.T) {
	table := scenario.CatalogTable()
	for _, name := range scenario.Names() {
		if !strings.Contains(table, "`"+name+"`") {
			t.Errorf("catalog table missing family %q:\n%s", name, table)
		}
	}
}
