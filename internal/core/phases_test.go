package core

import (
	"bytes"
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// TestPhase1TriggersAllWindowTypes is the Table 3 acceptance criterion:
// derived training must trigger every transient-window type, except
// illegal-instruction windows on BOOM (flushed at decode).
func TestPhase1TriggersAllWindowTypes(t *testing.T) {
	for _, kind := range []uarch.CoreKind{uarch.KindBOOM, uarch.KindXiangShan} {
		for _, trig := range gen.AllTriggerTypes() {
			kind, trig := kind, trig
			t.Run(kind.String()+"/"+trig.String(), func(t *testing.T) {
				f := NewFuzzer(DefaultOptions(kind))
				triggered := false
				var last *Phase1Result
				for attempt := 0; attempt < 5 && !triggered; attempt++ {
					seed := f.gen.SeedFor(kind, trig, gen.VariantDerived)
					p1, err := f.Phase1(seed)
					if err != nil {
						t.Fatalf("phase1: %v", err)
					}
					last = p1
					triggered = p1.Triggered
				}
				wantTriggered := !(kind == uarch.KindBOOM && trig == gen.TrigIllegal)
				if triggered != wantTriggered {
					t.Fatalf("triggered=%v, want %v (last: %+v)", triggered, wantTriggered, last)
				}
				if triggered && trig.Squash() == uarch.SquashException && last.ETO != 0 {
					t.Errorf("exception window kept training (ETO=%d), reduction failed", last.ETO)
				}
				if triggered && trig.Squash().Mispredict() && last.ETO == 0 {
					t.Errorf("misprediction window reported zero effective training")
				}
			})
		}
	}
}

// TestPhase1RandomVariantAsymmetry checks the DejaVuzz* shape: random
// training cannot trigger indirect-jump windows on XiangShan (target
// confidence), while exception windows need no training at all.
func TestPhase1RandomVariantAsymmetry(t *testing.T) {
	triggeredJalr := false
	f := NewFuzzer(Options{
		Target: "xiangshan", Seed: 7, Iterations: 1, Workers: 1,
		MaxCycles: 20000, Variant: gen.VariantRandom,
		UseCoverageFeedback: true, UseLiveness: true, UseReduction: true,
	})
	for attempt := 0; attempt < 12 && !triggeredJalr; attempt++ {
		seed := f.gen.SeedFor(uarch.KindXiangShan, gen.TrigJumpMispred, gen.VariantRandom)
		p1, err := f.Phase1(seed)
		if err != nil {
			t.Fatalf("phase1: %v", err)
		}
		triggeredJalr = p1.Triggered
	}
	if triggeredJalr {
		t.Error("random training triggered indirect-jump windows on XiangShan; expected failure (Table 3)")
	}

	// Exception windows trigger with zero overhead under random training too.
	seed := f.gen.SeedFor(uarch.KindXiangShan, gen.TrigPageFault, gen.VariantRandom)
	p1, err := f.Phase1(seed)
	if err != nil {
		t.Fatalf("phase1: %v", err)
	}
	if !p1.Triggered {
		t.Fatal("random variant failed to trigger a page-fault window")
	}
	if p1.ETO != 0 {
		t.Errorf("page-fault window ETO=%d, want 0 after reduction", p1.ETO)
	}
}

// TestPhase2ProducesTaintAndCoverage runs the full phase 1+2 flow and checks
// secrets propagate and coverage points accumulate.
func TestPhase2ProducesTaintAndCoverage(t *testing.T) {
	f := NewFuzzer(DefaultOptions(uarch.KindBOOM))
	var got bool
	for attempt := int64(0); attempt < 8 && !got; attempt++ {
		seed := f.gen.SeedFor(uarch.KindBOOM, gen.TrigBranchMispred, gen.VariantDerived)
		seed.SecretFaults = false
		seed.MaskHigh = false
		p1, err := f.Phase1(seed)
		if err != nil || !p1.Triggered {
			continue
		}
		p2, err := f.Phase2(p1)
		if err != nil {
			t.Fatalf("phase2: %v", err)
		}
		if p2.TaintGain && f.coverage.Count() > 0 {
			got = true
		}
	}
	if !got {
		t.Fatal("no taint gain / coverage across attempts")
	}
}

// TestFullIterationFindsLeak runs complete iterations on BOOM and expects at
// least one finding (the Meltdown dcache-encode path is reliably present).
func TestFullIterationFindsLeak(t *testing.T) {
	opts := DefaultOptions(uarch.KindBOOM)
	opts.Iterations = 30
	opts.Seed = 42
	f := NewFuzzer(opts)
	rep := f.Run()
	if len(rep.Findings) == 0 {
		t.Fatalf("no findings in %d iterations (coverage=%d, sims=%d)",
			opts.Iterations, rep.Coverage, rep.Sims)
	}
	if rep.Coverage == 0 {
		t.Error("coverage matrix is empty")
	}
	for _, fi := range rep.Findings {
		if fi.AttackType != "Meltdown" && fi.AttackType != "Spectre" {
			t.Errorf("bad attack type %q", fi.AttackType)
		}
	}
}

// TestPhase3RerunsWithRetrySecret drives Phase 3 from a retry attempt's
// result. A triggered stimulus whose window gains no taint reports its last
// attempt, which ran with the rotated secret; the sanitisation rerun must
// plant that same secret pair, or Phase 3 would diff censuses taken under
// two different secrets.
func TestPhase3RerunsWithRetrySecret(t *testing.T) {
	opts := DefaultOptions(uarch.KindBOOM)
	opts.SecretRetries = 2
	f := NewFuzzer(opts)
	retry := rotateSecret(DefaultSecret, 1)
	for i := 0; i < 400; i++ {
		p1, err := f.Phase1(f.gen.RandomSeed(uarch.KindBOOM))
		if err != nil || !p1.Triggered {
			continue
		}
		p2, err := f.Phase2(p1)
		if err != nil {
			t.Fatalf("phase2: %v", err)
		}
		if p2.TaintGain || p2.Sims != opts.SecretRetries {
			continue // not a retry attempt's result
		}
		p3, err := f.Phase3(p1, p2)
		if err != nil {
			t.Fatalf("phase3: %v", err)
		}
		if p3.Sims == 0 {
			continue // a timing verdict: no sanitisation rerun
		}
		ctx := f.seqShard().ctx
		if got := ctx.a.space.ReadRaw(swapmem.SecretAddr, len(retry)); !bytes.Equal(got, retry) {
			t.Fatalf("sanitisation rerun's instance a ran with secret %x, want the retry's %x", got, retry)
		}
		want := swapmem.FlipSecret(retry)
		if got := ctx.b.space.ReadRaw(swapmem.SecretAddr, len(want)); !bytes.Equal(got, want) {
			t.Fatalf("sanitisation rerun's instance b ran with secret %x, want %x", got, want)
		}
		return
	}
	t.Fatal("no triggered, taint-free stimulus reached the sanitisation rerun")
}
