package scenario_test

import (
	"math/rand"
	"testing"

	"dejavuzz/internal/scenario"
)

// The scheduler property suite. The engine contract being checked: Pick is
// read-only during an epoch (drawing from the caller's RNG against frozen
// weights), Update runs once per merge barrier with the epoch's merged
// yield, and no enabled family can starve.

// policySpellings are the two accepted names of the scheduling policy:
// empty (the default) and "ucb". The table-driven tests run under both, so
// the default spelling can never drift from the named policy.
var policySpellings = []struct {
	name   string
	policy scenario.Policy
}{
	{"default", ""},
	{"ucb", scenario.PolicyUCB},
}

func TestNewSchedulerRejectsEmptyFamilySet(t *testing.T) {
	// Regression: the old constructor accepted an empty set and Pick then
	// indexed names[len(names)-1] out of bounds. Construction must fail.
	if _, err := scenario.NewScheduler(nil, scenario.PolicyUCB); err == nil {
		t.Fatal("NewScheduler accepted a nil family set")
	}
	if _, err := scenario.NewScheduler([]string{}, scenario.PolicyUCB); err == nil {
		t.Fatal("NewScheduler accepted an empty family set")
	}
}

func TestNewSchedulerRejectsDuplicatesAndUnknownPolicy(t *testing.T) {
	if _, err := scenario.NewScheduler([]string{"a", "b", "a"}, scenario.PolicyUCB); err == nil {
		t.Fatal("NewScheduler accepted a duplicated family")
	}
	if _, err := scenario.NewScheduler([]string{"a"}, scenario.Policy("thompson")); err == nil {
		t.Fatal("NewScheduler accepted an unknown policy")
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want scenario.Policy
		ok   bool
	}{
		{"", scenario.DefaultPolicy, true},
		{"ucb", scenario.PolicyUCB, true},
		{"ema", "", false},
		{"UCB", "", false},
		{"greedy", "", false},
	}
	for _, c := range cases {
		got, err := scenario.ParsePolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) accepted an invalid name", c.in)
		}
	}
}

func TestSchedulerSingleFamilyAlwaysPicked(t *testing.T) {
	sch, err := scenario.NewScheduler([]string{"only"}, scenario.PolicyUCB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		if got := sch.Pick(rng); got != "only" {
			t.Fatalf("single-family pick returned %q", got)
		}
	}
}

// simulateEpochs drives a scheduler the way the engine does: each epoch
// draws epochPicks picks against frozen weights, scores them with perPick
// (points credited to each pick of a family), then folds the merged yield
// in at the barrier. It returns cumulative pick counts per family.
func simulateEpochs(t *testing.T, sch *scenario.Scheduler, rng *rand.Rand, epochs, epochPicks int, perPick map[string]int) map[string]int {
	t.Helper()
	total := map[string]int{}
	for e := 0; e < epochs; e++ {
		yield := map[string]scenario.Yield{}
		for i := 0; i < epochPicks; i++ {
			name := sch.Pick(rng)
			y := yield[name]
			y.Picks++
			y.Points += perPick[name]
			yield[name] = y
			total[name]++
		}
		sch.Update(yield)
	}
	return total
}

// TestUCBNoStarvationProperty is the headline property: for any seed and an
// adversarial yield profile (one family massively out-yielding the rest),
// every enabled family is picked at least once within families×epochPicks
// iterations. The bound is structural — while any family is untried, Pick
// draws uniformly over exactly the untried set, and every barrier removes
// at least one family from it — so the test sweeps many seeds rather than
// trusting one lucky stream.
func TestUCBNoStarvationProperty(t *testing.T) {
	fams := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	perPick := map[string]int{"c": 500} // adversarially hot family
	const epochPicks = 16
	for seed := int64(0); seed < 50; seed++ {
		sch, err := scenario.NewScheduler(fams, scenario.PolicyUCB)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		counts := simulateEpochs(t, sch, rng, len(fams), epochPicks, perPick)
		for _, f := range fams {
			if counts[f] == 0 {
				t.Fatalf("seed %d: family %q starved within %d picks: %v",
					seed, f, len(fams)*epochPicks, counts)
			}
		}
	}
}

// TestUCBRegretSanity checks the exploit side of the bandit: once every
// family has been tried, the hot family's cumulative pick share must grow
// across barriers and end clearly above uniform.
func TestUCBRegretSanity(t *testing.T) {
	fams := []string{"a", "b", "hot", "d"}
	perPick := map[string]int{"hot": 40}
	sch, err := scenario.NewScheduler(fams, scenario.PolicyUCB)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const epochPicks = 32
	hotTotal, allTotal := 0, 0
	var shares []float64
	for e := 0; e < 12; e++ {
		counts := simulateEpochs(t, sch, rng, 1, epochPicks, perPick)
		hotTotal += counts["hot"]
		allTotal += epochPicks
		shares = append(shares, float64(hotTotal)/float64(allTotal))
	}
	// Share grows across the campaign (compare first-third to last-third
	// averages — per-barrier monotonicity would be noise-sensitive).
	third := len(shares) / 3
	early, late := 0.0, 0.0
	for i := 0; i < third; i++ {
		early += shares[i]
		late += shares[len(shares)-1-i]
	}
	if late <= early {
		t.Fatalf("hot family's pick share did not grow: early=%v late=%v shares=%v", early/float64(third), late/float64(third), shares)
	}
	if final := shares[len(shares)-1]; final <= 1.0/float64(len(fams)) {
		t.Fatalf("hot family's final share %v not above uniform %v", final, 1.0/float64(len(fams)))
	}
}

// TestUCBNeverDecaysWithoutEvidence pins the fix itself: a family that goes
// unpicked for many consecutive barriers must never lose weight — absence
// of picks is absence of evidence.
func TestUCBNeverDecaysWithoutEvidence(t *testing.T) {
	sch, err := scenario.NewScheduler([]string{"busy", "idle"}, scenario.PolicyUCB)
	if err != nil {
		t.Fatal(err)
	}
	// Try both once so the forced-exploration phase is over.
	sch.Update(map[string]scenario.Yield{
		"busy": {Picks: 1, Points: 8},
		"idle": {Picks: 1},
	})
	prev, _, _ := sch.Probe("idle")
	for barrier := 0; barrier < 20; barrier++ {
		// Only busy gets picked, at a constant points-per-pick, barrier
		// after barrier; idle sees zero evidence.
		sch.Update(map[string]scenario.Yield{"busy": {Picks: 4, Points: 32}})
		w, _, _ := sch.Probe("idle")
		if w < prev {
			t.Fatalf("barrier %d: idle family's weight decayed with no evidence: %v -> %v", barrier, prev, w)
		}
		prev = w
	}
}

// TestSchedulerDeterministicPickStream pins that two schedulers fed the
// same yields and the same RNG streams produce identical pick sequences —
// the unit-level face of the engine's worker-count determinism.
func TestSchedulerDeterministicPickStream(t *testing.T) {
	for _, sp := range policySpellings {
		policy := sp.policy
		t.Run(sp.name, func(t *testing.T) {
			fams := []string{"a", "b", "c", "d", "e"}
			perPick := map[string]int{"b": 12, "d": 3}
			s1, err := scenario.NewScheduler(fams, policy)
			if err != nil {
				t.Fatal(err)
			}
			s2, err := scenario.NewScheduler(fams, policy)
			if err != nil {
				t.Fatal(err)
			}
			r1, r2 := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
			c1 := simulateEpochs(t, s1, r1, 8, 24, perPick)
			c2 := simulateEpochs(t, s2, r2, 8, 24, perPick)
			for _, f := range fams {
				if c1[f] != c2[f] {
					t.Fatalf("pick streams diverged: %v vs %v", c1, c2)
				}
			}
		})
	}
}
