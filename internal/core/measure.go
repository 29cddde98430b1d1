package core

import "dejavuzz/internal/gen"

// TrainStats aggregates Phase-1 measurements for one (core, variant,
// trigger) cell of Table 3.
type TrainStats struct {
	Attempts  int
	Successes int
	AvgTO     float64 // average training overhead over successes
	AvgETO    float64 // excluding alignment nops
	Sims      int
}

// Triggerable reports whether any attempt triggered the window.
func (s TrainStats) Triggerable() bool { return s.Successes > 0 }

// MeasureTraining runs Phase 1 `attempts` times for a fixed trigger type and
// reports the training-overhead statistics of the reduced schedules — the
// Table 3 measurement.
func (f *Fuzzer) MeasureTraining(trigger gen.TriggerType, variant gen.Variant, attempts int) TrainStats {
	st := TrainStats{}
	for i := 0; i < attempts; i++ {
		seed := f.gen.SeedFor(f.kind, trigger, variant)
		p1, err := f.Phase1(seed)
		if err != nil {
			continue
		}
		st.Attempts++
		st.Sims += p1.Sims
		if !p1.Triggered {
			continue
		}
		st.Successes++
		st.AvgTO += (float64(p1.TO) - st.AvgTO) / float64(st.Successes)
		st.AvgETO += (float64(p1.ETO) - st.AvgETO) / float64(st.Successes)
	}
	return st
}

// Generator exposes the underlying stimulus generator.
func (f *Fuzzer) Generator() *gen.Generator { return f.gen }
