package dejavuzz_test

import (
	"fmt"
	"testing"

	"dejavuzz"
)

// TestBenchCampaignNoStarvationUnderUCB is the starvation regression gate
// (CI runs it as a named step): on the boom target at 128 iterations and
// the isasim target at 512, both at seed 42 with 16-iteration epochs, every
// registered family must record at least one pick. A scheduler whose
// scores decay without evidence starves families in the boom campaign;
// the UCB bandit's forced exploration must not.
func TestBenchCampaignNoStarvationUnderUCB(t *testing.T) {
	for _, tc := range []struct {
		target     string
		iterations int
	}{
		{"boom", 128},
		{"isasim", 512},
	} {
		t.Run(fmt.Sprintf("%s-%d", tc.target, tc.iterations), func(t *testing.T) {
			c, err := dejavuzz.New(tc.target,
				dejavuzz.WithSeed(42),
				dejavuzz.WithIterations(tc.iterations),
				dejavuzz.WithMergeEvery(16),
			)
			if err != nil {
				t.Fatal(err)
			}
			rep := c.Run()
			if got, want := len(rep.Scenarios), len(dejavuzz.Scenarios()); got != want {
				t.Fatalf("report has %d scenario rows, registry has %d", got, want)
			}
			for _, sc := range rep.Scenarios {
				if sc.Picks == 0 {
					t.Errorf("family %q starved: 0 picks in %d iterations", sc.Name, tc.iterations)
				}
			}
		})
	}
}
