package dejavuzz

import (
	"reflect"
	"testing"

	"dejavuzz/internal/core"
)

// TestResetEquivalenceAllTargets is the cross-target acceptance test for
// per-shard execution-context reuse: for every registered target (the two
// cycle-accurate uarch cores and the architectural isasim pair), a campaign
// run with long-lived contexts must produce a report byte-identical —
// modulo the wall-clock Duration field — to a run that constructs
// all DUT state from scratch on every simulation, at Workers=1 and
// Workers=8. CI runs this under -race, so it also proves shard contexts
// share no mutable state.
func TestResetEquivalenceAllTargets(t *testing.T) {
	for _, target := range Targets() {
		t.Run(target, func(t *testing.T) {
			iterations := 48
			if target == "isasim" {
				iterations = 128 // cheap target; more iterations, more reuse
			} else if testing.Short() {
				iterations = 24
			}
			opts := func(workers int, freshCtx bool) core.Options {
				o := core.DefaultOptions(0)
				o.Target = target
				o.Seed = 42
				o.Iterations = iterations
				o.Workers = workers
				o.MergeEvery = 16
				o.FreshContexts = freshCtx
				return o.Normalized()
			}
			type print struct {
				Findings []core.Finding
				Iters    []core.IterStat
				Coverage int
				Sims     int
			}
			run := func(workers int, freshCtx bool) print {
				rep := core.NewFuzzer(opts(workers, freshCtx)).Run()
				return print{rep.Findings, rep.Iters, rep.Coverage, rep.Sims}
			}

			want := run(1, true) // per-simulation fresh construction
			if want.Coverage == 0 {
				t.Fatalf("fresh-construction reference campaign for %s collected no coverage", target)
			}
			for _, workers := range []int{1, 8} {
				got := run(workers, false) // context reuse
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d: context-reuse report diverges from fresh-construction report", workers)
				}
			}
		})
	}
}
