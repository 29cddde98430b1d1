package core

import (
	"testing"

	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

// TestMeltdownTriggerVariations reproduces the paper's §6.4 claim that
// DejaVuzz covers all trigger variations of known vulnerabilities — e.g.
// replacing the Meltdown page-fault trigger with an access fault or an
// unaligned access. Every exception flavour must produce a Meltdown-type
// finding on BOOM.
func TestMeltdownTriggerVariations(t *testing.T) {
	for _, trig := range []gen.TriggerType{
		gen.TrigPageFault, gen.TrigAccessFault, gen.TrigMisalign,
	} {
		trig := trig
		t.Run(trig.String(), func(t *testing.T) {
			f := NewFuzzer(DefaultOptions(uarch.KindBOOM))
			found := false
			for attempt := 0; attempt < 12 && !found; attempt++ {
				seed := f.gen.SeedFor(uarch.KindBOOM, trig, gen.VariantDerived)
				seed.SecretFaults = true // Meltdown: the secret access faults
				seed.MaskHigh = false
				rr, err := f.Reproduce(seed)
				if err != nil {
					t.Fatal(err)
				}
				if rr.Finding != nil && rr.Finding.AttackType == "Meltdown" {
					found = true
				}
			}
			if !found {
				t.Errorf("no Meltdown finding through a %v trigger", trig)
			}
		})
	}
}

// TestSpectreWindowVariations: Spectre-type leaks must be reachable through
// every misprediction window class on BOOM.
func TestSpectreWindowVariations(t *testing.T) {
	for _, trig := range []gen.TriggerType{
		gen.TrigBranchMispred, gen.TrigJumpMispred, gen.TrigReturnMispred,
	} {
		trig := trig
		t.Run(trig.String(), func(t *testing.T) {
			f := NewFuzzer(DefaultOptions(uarch.KindBOOM))
			found := false
			for attempt := 0; attempt < 12 && !found; attempt++ {
				seed := f.gen.SeedFor(uarch.KindBOOM, trig, gen.VariantDerived)
				seed.SecretFaults = false
				seed.MaskHigh = false
				rr, err := f.Reproduce(seed)
				if err != nil {
					t.Fatal(err)
				}
				if rr.Finding != nil && rr.Finding.AttackType == "Spectre" {
					found = true
				}
			}
			if !found {
				t.Errorf("no Spectre finding through a %v window", trig)
			}
		})
	}
}

// TestMeltdownSamplingOnlyOnXiangShan: the masked-address (MDS-style) probe
// must witness B1 on XiangShan and never on BOOM.
func TestMeltdownSamplingOnlyOnXiangShan(t *testing.T) {
	probe := func(kind uarch.CoreKind) bool {
		f := NewFuzzer(DefaultOptions(kind))
		for attempt := 0; attempt < 10; attempt++ {
			seed := f.gen.SeedFor(kind, gen.TrigBranchMispred, gen.VariantDerived)
			seed.MaskHigh = true
			p1, err := f.Phase1(seed)
			if err != nil || !p1.Triggered {
				continue
			}
			p2, err := f.Phase2(p1)
			if err != nil {
				continue
			}
			if p2.Run.Pair.A.BugWitness[uarch.WitnessMeltdownSampling] > 0 {
				return true
			}
		}
		return false
	}
	if !probe(uarch.KindXiangShan) {
		t.Error("B1 never witnessed on XiangShan with masked probes")
	}
	if probe(uarch.KindBOOM) {
		t.Error("B1 witnessed on BOOM, which lacks the truncation bug")
	}
}

// TestBuglessBaselineStillLeaks: disabling the injected bugs must not
// disable the architecturally inherent channels (Meltdown forwarding and
// cache encodes exist regardless of B1-B5), but it must remove the
// bug-specific witnesses.
func TestBuglessBaselineStillLeaks(t *testing.T) {
	opts := DefaultOptions(uarch.KindBOOM)
	opts.Iterations = 25
	opts.Seed = 21
	opts.Bugless = true
	rep := NewFuzzer(opts).Run()
	if len(rep.Findings) == 0 {
		t.Fatal("bugless core shows no inherent transient leaks")
	}
	for _, fi := range rep.Findings {
		for _, b := range fi.BugLabels {
			switch b {
			case "phantom-rsb", "phantom-btb", "meltdown-sampling", "spectre-reload", "spectre-refetch-miss":
				t.Errorf("bugless run still witnessed %s", b)
			}
		}
	}
}
