// Package campaign runs grids of DejaVuzz fuzzing campaigns — the cores ×
// training-variants × ablations matrices behind the paper's Tables 3–5 and
// Figure 7 — over one shared worker pool, with JSON checkpoint/resume and
// streaming per-campaign progress. It builds on internal/core's
// deterministic sharded engine, so every cell's report is reproducible from
// its options alone regardless of pool width.
package campaign

import (
	"fmt"

	"dejavuzz/internal/core"
	"dejavuzz/internal/gen"
	"dejavuzz/internal/uarch"
)

// Spec is one campaign cell: a name (the checkpoint key) and the full
// deterministic options that produce its report.
type Spec struct {
	Name string
	Opts core.Options
}

// Ablation names an options mutation (e.g. "no-feedback" for DejaVuzz−).
// The zero Apply is the identity, for the baseline row.
type Ablation struct {
	Name  string
	Apply func(*core.Options)
}

// Baseline is the identity ablation.
func Baseline() Ablation { return Ablation{Name: "base"} }

// NamedAblations maps the CLI ablation vocabulary onto option mutations.
var NamedAblations = map[string]func(*core.Options){
	"base":         nil,
	"no-feedback":  func(o *core.Options) { o.UseCoverageFeedback = false },
	"no-liveness":  func(o *core.Options) { o.UseLiveness = false },
	"no-reduction": func(o *core.Options) { o.UseReduction = false },
	"bugless":      func(o *core.Options) { o.Bugless = true },
}

// AblationByName resolves a named ablation.
func AblationByName(name string) (Ablation, error) {
	fn, ok := NamedAblations[name]
	if !ok {
		return Ablation{}, fmt.Errorf("campaign: unknown ablation %q", name)
	}
	return Ablation{Name: name, Apply: fn}, nil
}

// Matrix describes a campaign grid: cores × variants × ablations × seeds.
// Empty dimensions collapse to the Base options' value (one cell on that
// axis); without a Cores axis that is the Base target, whose Kind() names
// the cell.
type Matrix struct {
	// Prefix namespaces spec names (and so checkpoint keys), letting several
	// matrices share one checkpoint file without key collisions.
	Prefix string
	// Base supplies the shared options; a zero Iterations falls back to the
	// core's DefaultOptions iteration count (all other Base fields are
	// always honoured).
	Base      core.Options
	Cores     []uarch.CoreKind
	Variants  []gen.Variant
	Ablations []Ablation
	// Seeds runs each cell at several campaign seeds (the paper's trials).
	Seeds []int64
}

// Expand enumerates the grid into deterministic, stably-named specs. The
// order is fixed (cores outermost, seeds innermost) so checkpoint files and
// result slices line up run-to-run.
func (m Matrix) Expand() []Spec {
	cores := m.Cores
	if len(cores) == 0 {
		cores = []uarch.CoreKind{targetKind(m.Base)}
	}
	variants := m.Variants
	if len(variants) == 0 {
		variants = []gen.Variant{m.Base.Variant}
	}
	ablations := m.Ablations
	if len(ablations) == 0 {
		ablations = []Ablation{Baseline()}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{m.Base.Seed}
	}

	var out []Spec
	for _, kind := range cores {
		for _, v := range variants {
			for _, ab := range ablations {
				for _, seed := range seeds {
					opts := m.Base
					if opts.Iterations == 0 {
						opts.Iterations = core.DefaultIterations
					}
					if len(m.Cores) > 0 {
						// An explicit Cores axis selects the built-in uarch
						// targets; without one the Base target (which may be
						// a custom registration) carries through.
						opts.Target = core.BuiltinTargetName(kind)
					}
					opts.Variant = v
					opts.Seed = seed
					if ab.Apply != nil {
						ab.Apply(&opts)
					}
					// Cells on non-builtin targets are keyed by target name
					// so they never collide with uarch cells in a shared
					// checkpoint.
					label := fmt.Sprintf("%v", kind)
					if t := opts.Normalized().Target; t != core.BuiltinTargetName(kind) {
						label = t
					}
					name := fmt.Sprintf("%s/%v/%s", label, v, ab.Name)
					if m.Prefix != "" {
						name = m.Prefix + "/" + name
					}
					if len(seeds) > 1 {
						name = fmt.Sprintf("%s/s%d", name, seed)
					}
					out = append(out, Spec{Name: name, Opts: opts})
				}
			}
		}
	}
	return out
}

// targetKind returns the core kind of the options' target. An unregistered
// name yields KindBOOM: the cell is then labelled by the name, and
// NewFuzzer refuses it when the cell runs.
func targetKind(o core.Options) uarch.CoreKind {
	t, err := core.LookupTarget(o.Normalized().Target)
	if err != nil {
		return uarch.KindBOOM
	}
	return t.Kind()
}
