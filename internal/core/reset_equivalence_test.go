package core

import (
	"reflect"
	"testing"

	"dejavuzz/internal/uarch"
)

// TestCampaignResetEquivalence is the acceptance test for the per-shard
// execution contexts: a campaign whose shards reuse long-lived contexts
// (Reset between iterations) must produce a report byte-identical — modulo
// the wall-clock Duration field, which the fingerprint excludes —
// to one whose simulations construct all DUT state from scratch, across
// both built-in uarch targets and both worker counts. Run under -race in CI,
// this also exercises the no-shared-state claim of the shard contexts.
func TestCampaignResetEquivalence(t *testing.T) {
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		t.Run(kind.String(), func(t *testing.T) {
			iterations := 48
			if testing.Short() {
				iterations = 24
			}
			fresh := campaignOpts(1, iterations)
			fresh.Target = BuiltinTargetName(kind)
			fresh.FreshContexts = true
			want := fingerprint(NewFuzzer(fresh).Run())
			if want.Coverage == 0 {
				t.Fatal("fresh-construction reference campaign collected no coverage")
			}

			for _, workers := range []int{1, 8} {
				reuse := campaignOpts(workers, iterations)
				reuse.Target = BuiltinTargetName(kind)
				got := fingerprint(NewFuzzer(reuse).Run())
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d: context-reuse report diverges from fresh-construction report", workers)
				}
			}
		})
	}
}

// TestSequentialPhasesMatchFreshConstruction pins the exported Phase1/2/3
// path: the sequential shard (context reuse) must reproduce the same
// phase results as a fresh-construction fuzzer, across consecutive seeds
// (the reuse case that would expose state leaking between iterations).
func TestSequentialPhasesMatchFreshConstruction(t *testing.T) {
	mk := func(freshCtx bool) *Fuzzer {
		opts := DefaultOptions(uarch.KindBOOM)
		opts.Seed = 11
		opts.FreshContexts = freshCtx
		return NewFuzzer(opts)
	}
	a, b := mk(false), mk(true)
	for i := 0; i < 6; i++ {
		seed := a.gen.RandomSeed(uarch.KindBOOM)
		_ = b.gen.RandomSeed(uarch.KindBOOM) // keep the two seed streams aligned

		ra, err := a.Reproduce(seed)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Reproduce(seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("seed %d: reuse %+v, fresh %+v", i, ra, rb)
		}
	}
}
