package gen

import (
	"testing"

	"dejavuzz/internal/swapmem"
	"dejavuzz/internal/uarch"
)

// FuzzBuildStimulus sends arbitrary seed fields through the three build
// calls. Each call must either return an error or yield images that fit
// the swappable region; none may panic.
func FuzzBuildStimulus(f *testing.F) {
	f.Add("page-fault", 0, 0, 0, int64(1), 70, 5, 1, 0, false, false, false)
	f.Add("branch-mispredict", 1, 5, 0, int64(7), 109, 11, 4, 8, true, true, true)
	f.Add("", 0, 7, 1, int64(-3), 60, 4, 3, 3, false, true, false)
	f.Add("cache-occupancy", 0, 1, 0, int64(0), 60, 4, 4, 0, true, false, true)
	f.Add("stl-forward-chain", 1, 4, 1, int64(99), 80, -4095, 2, 1, false, false, false)
	f.Fuzz(func(t *testing.T, fam string, core, trig, variant int, rnd int64,
		trigOff, winLen, encOps, encoder int, mask, faults, store bool) {
		seed := Seed{
			Core: uarch.CoreKind(core), Scenario: fam, Trigger: TriggerType(trig),
			Variant: Variant(variant), Rand: rnd,
			TriggerOff: trigOff, WindowLen: winLen, EncodeOps: encOps, Encoder: encoder,
			MaskHigh: mask, SecretFaults: faults, StoreFlavor: store,
		}
		g := New(0)
		var st1, st2, st3 Stimulus
		if g.BuildStimulusInto(&st1, seed) != nil {
			return
		}
		checkImages(t, "phase-1", &st1)
		if g.CompleteWindowInto(&st2, &st1) != nil {
			return
		}
		checkImages(t, "completed", &st2)
		if g.SanitizedInto(&st3, &st2) != nil {
			return
		}
		checkImages(t, "sanitised", &st3)
	})
}

// checkImages fails if any packet image of st is larger than the swappable
// region.
func checkImages(t *testing.T, tag string, st *Stimulus) {
	t.Helper()
	for _, ps := range [][]*swapmem.Packet{{st.Transient}, st.TriggerTrains, st.WindowTrains} {
		for _, p := range ps {
			if p.Image.Size() > swapmem.SwapSize {
				t.Fatalf("%s: packet %s image is %d bytes, region holds %d", tag, p.Name, p.Image.Size(), swapmem.SwapSize)
			}
		}
	}
}
