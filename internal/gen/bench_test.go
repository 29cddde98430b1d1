package gen

import (
	"testing"

	"dejavuzz/internal/scenario"
	"dejavuzz/internal/uarch"
)

// benchSeeds is a fixed seed set covering every registered family: four
// derived-training seeds per family from one generator.
func benchSeeds(b *testing.B) []Seed {
	g := New(1)
	var seeds []Seed
	for _, fam := range scenario.Names() {
		for k := 0; k < 4; k++ {
			s, err := g.SeedScenario(uarch.KindBOOM, fam)
			if err != nil {
				b.Fatal(err)
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// BenchmarkBuildStimulus measures the stimulus-build layer on its own: each
// sub-benchmark times one of the three build calls, one call per op, over
// benchSeeds with a warm generator and recycled buffers, as campaign shards
// run them.
func BenchmarkBuildStimulus(b *testing.B) {
	seeds := benchSeeds(b)
	g := New(0)
	phase1 := make([]Stimulus, len(seeds))
	complete := make([]Stimulus, len(seeds))
	for i, s := range seeds {
		if err := g.BuildStimulusInto(&phase1[i], s); err != nil {
			b.Fatal(err)
		}
		if err := g.CompleteWindowInto(&complete[i], &phase1[i]); err != nil {
			b.Fatal(err)
		}
	}
	var dst Stimulus
	for _, c := range []struct {
		name string
		call func(i int) error
	}{
		{"build", func(i int) error { return g.BuildStimulusInto(&dst, seeds[i]) }},
		{"complete", func(i int) error { return g.CompleteWindowInto(&dst, &phase1[i]) }},
		{"sanitize", func(i int) error { return g.SanitizedInto(&dst, &complete[i]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				if err := c.call(i % len(seeds)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
