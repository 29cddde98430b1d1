package core

import (
	"reflect"
	"slices"
	"testing"

	"dejavuzz/internal/gen"
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

// phaseResults is everything the three phases report for one seed, copied
// out of the borrowed stimulus, mask and runs.
type phaseResults struct {
	P1 Phase1Result
	P2 Phase2Result
	P3 Phase3Result
}

// runPhases runs a seed through the exported phases, gated as the phase
// chain gates them.
func runPhases(t *testing.T, f *Fuzzer, seed gen.Seed) phaseResults {
	t.Helper()
	var r phaseResults
	p1, err := f.Phase1(seed)
	if err != nil {
		t.Fatal(err)
	}
	r.P1 = *p1
	r.P1.Stimulus, r.P1.Keep = nil, slices.Clone(p1.Keep)
	if !p1.Triggered {
		return r
	}
	p2, err := f.Phase2(p1)
	if err != nil {
		t.Fatal(err)
	}
	r.P2 = *p2
	r.P2.Stimulus, r.P2.Run = nil, nil
	if !p2.TaintGain {
		return r
	}
	p3, err := f.Phase3(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	r.P3 = *p3
	return r
}

// TestSequentialPhasesMatchFreshConstruction pins the exported Phase1/2/3
// and Reproduce path: the sequential shard (context reuse) must reproduce
// the same phase results as a fresh-construction fuzzer, across consecutive
// seeds (the reuse case that would expose state leaking between
// iterations). Phase 3 reruns on the pair Phase 2 ran on, so a read of the
// primary run after the rerun would see the sanitised run with reuse and
// the primary run with fresh construction. The seed count is chosen so the
// run covers every path where Phase 3 reads the primary run around the
// rerun, and the test checks that each occurred.
func TestSequentialPhasesMatchFreshConstruction(t *testing.T) {
	mk := func(freshCtx bool) *Fuzzer {
		opts := DefaultOptions(uarch.KindBOOM)
		opts.Seed = 11
		opts.FreshContexts = freshCtx
		return NewFuzzer(opts)
	}
	a, b := mk(false), mk(true)
	var encoded, timing, retry, noModule int
	for i := 0; i < 32; i++ {
		seed := a.gen.RandomSeed(uarch.KindBOOM)
		_ = b.gen.RandomSeed(uarch.KindBOOM) // keep the two seed streams aligned

		pa, pb := runPhases(t, a, seed), runPhases(t, b, seed)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("seed %d: reuse phases %+v, fresh %+v", i, pa, pb)
		}
		switch {
		case pa.P3.Finding != nil && pa.P3.Finding.Kind == FindingEncoded:
			encoded++
		case pa.P3.Finding != nil:
			timing++
		case pa.P2.TaintGain && len(pa.P3.EncodedModules) == 0:
			noModule++
		}
		if pa.P2.Sims > 1 {
			retry++
		}

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
	if encoded == 0 || timing == 0 || retry == 0 || noModule == 0 {
		t.Fatalf("paths covered: %d encoded findings, %d timing findings, %d Phase-2 retries, %d taint gains whose sanitisation kept no module; want each",
			encoded, timing, retry, noModule)
	}
}
