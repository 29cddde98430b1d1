// Package campaign runs grids of DejaVuzz fuzzing campaigns — the cores ×
// training-variants × ablations × seeds matrices behind the paper's Table 5
// and Figure 7 — over one shared worker pool. A grid cell is a wire
// dejavuzz.Options launched as a session, the way dvz-server launches a
// campaign: given a checkpoint directory, each cell autosaves its own
// session checkpoint there and resumes from its last barrier. Reports are
// deterministic in a cell's options alone, whatever the pool width and
// wherever a run was interrupted.
package campaign

import (
	"fmt"
	"path"

	"dejavuzz"
)

// Spec is one grid cell: a name (the stem of its checkpoint file) and the
// wire options that launch it.
type Spec struct {
	Name string
	Opts dejavuzz.Options
}

// Matrix describes a campaign grid: cores × variants × ablations × seeds.
// An empty axis collapses to the Base options' value, one cell on that
// axis.
type Matrix struct {
	// Prefix namespaces cell names, letting several grids share one
	// checkpoint directory.
	Prefix string
	// Base supplies the shared options; whatever it leaves unset takes the
	// target's defaults.
	Base dejavuzz.Options
	// Cores set Target, Variants set Variant ("derived" or "random"),
	// Ablations each set one toggle (see Ablate) and Seeds set Seed (the
	// paper's trials).
	Cores     []string
	Variants  []string
	Ablations []string
	Seeds     []int64
}

// Ablate applies a named ablation to o: "base" sets nothing,
// "no-feedback" (DejaVuzz−), "no-liveness", "no-reduction" and "bugless"
// each set their toggle.
func Ablate(o *dejavuzz.Options, name string) error {
	switch name {
	case "base":
	case "no-feedback":
		o.NoCoverageFeedback = true
	case "no-liveness":
		o.NoLiveness = true
	case "no-reduction":
		o.NoReduction = true
	case "bugless":
		o.Bugless = true
	default:
		return fmt.Errorf("campaign: unknown ablation %q", name)
	}
	return nil
}

// Expand enumerates the grid into stably named cells, cores outermost and
// seeds innermost, so result slices line up run to run. A cell is named
// target/variant/ablation, plus /s<seed> when the grid has several seeds.
// Expand refuses an unknown ablation and any cell New would refuse, so a
// grid that cannot launch fails as a spec error before Run touches a file.
func (m Matrix) Expand() ([]Spec, error) {
	variant := m.Base.Variant
	if variant == "" {
		variant = dejavuzz.VariantNameDerived
	}
	var out []Spec
	for _, target := range axis(m.Cores, m.Base.EffectiveTarget()) {
		for _, v := range axis(m.Variants, variant) {
			for _, ab := range axis(m.Ablations, "base") {
				for _, seed := range axis(m.Seeds, m.Base.EffectiveSeed()) {
					o := m.Base
					o.Target, o.Variant = target, v
					o.Seed, o.SeedSet = seed, true
					if err := Ablate(&o, ab); err != nil {
						return nil, err
					}
					name := path.Join(m.Prefix, target, v, ab)
					if len(m.Seeds) > 1 {
						name = fmt.Sprintf("%s/s%d", name, seed)
					}
					if _, err := o.Campaign(); err != nil {
						return nil, fmt.Errorf("campaign: cell %s: %w", name, err)
					}
					out = append(out, Spec{Name: name, Opts: o})
				}
			}
		}
	}
	return out, nil
}

// axis returns vals, or the single value unset when vals is empty.
func axis[T any](vals []T, unset T) []T {
	if len(vals) == 0 {
		return []T{unset}
	}
	return vals
}
